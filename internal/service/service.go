// Package service turns the co-emulation engine into a job service: a
// bounded worker pool executes declarative run specs (internal/spec),
// an LRU cache keyed by the canonical spec hash serves duplicate
// submissions bit-identical reports without re-running, and every job
// carries a context so client aborts and shutdown cancel in-flight
// engine runs at domain-cycle granularity (core.Engine.RunContext).
//
// Below the in-memory cache sits an optional persistent result store
// (internal/store): completed results are written through to disk, and
// a submission that misses the memory cache is answered from the store
// — so a restarted daemon, or a sibling process sharing the directory,
// reuses every previously computed point with zero engine runs.
// Parameter sweeps fan out over the same pool via StartSweepPoints, one
// job per expanded point, deduplicated like any other submission.
//
// A job lives exactly as long as some caller waits on it: when the last
// waiter abandons an unfinished job, the job is canceled.
//
// Concurrency model: engine runs are single-threaded and independent,
// so the pool runs up to Workers of them in parallel (the cmd/sweep -j
// pattern); all job bookkeeping is guarded by one service mutex.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"coemu/internal/core"
	"coemu/internal/faultplan"
	"coemu/internal/rng"
	"coemu/internal/spec"
	"coemu/internal/store"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Service errors.
var (
	// ErrQueueFull is returned by Submit when the pending-job queue is
	// at capacity (backpressure; retry later).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: shut down")
	// ErrWorkerPanic marks a job whose engine run panicked (organically
	// or by fault injection). The worker recovers and keeps serving;
	// only the job fails.
	ErrWorkerPanic = errors.New("service: worker panic")
	// ErrJobTimeout marks a job that exceeded its spec's run.timeout
	// deadline. Distinct from a client cancellation: the job fails
	// rather than reporting canceled.
	ErrJobTimeout = errors.New("service: job deadline exceeded")
)

// Options configures a Service.
type Options struct {
	// Workers is the worker-pool width. Default: runtime.NumCPU().
	Workers int
	// CacheSize is the LRU result-cache capacity in reports. Default
	// 128; negative disables caching.
	CacheSize int
	// QueueDepth bounds the pending-job queue. Default 256.
	QueueDepth int
	// Store, when non-nil, is the persistent result store used as a
	// write-through layer under the in-memory cache.
	Store *store.Store
	// Logf, when non-nil, receives operational warnings (e.g. a failed
	// store write-through). log.Printf fits.
	Logf func(format string, args ...any)
	// Faults, when non-nil, injects chaos-testing faults per its
	// probabilities: the service section drives worker panics and slow
	// runs, and the channel section rides into every engine run whose
	// spec does not carry its own plan. The store section is consumed
	// by store.Open, not here. Nil injects nothing.
	Faults *faultplan.Plan
	// Metrics, when non-nil, receives latency and engine-protocol
	// observations from every job (see NewMetrics). Nil disables
	// instrumentation.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// Job is one submitted run. All state is guarded by the owning
// service's mutex; read it through Info and Wait.
type Job struct {
	svc  *Service
	seq  int64
	hash string
	spec *spec.Spec

	status    Status
	result    *Result
	err       error
	cached    bool // completed without an engine run (cache or store)
	fromStore bool // the cached result came from the persistent store
	finished  bool
	done      chan struct{}

	ctx    context.Context
	cancel context.CancelFunc

	// waiters counts live Wait calls; the job cancels when the last
	// waiter abandons it. pendingRefs bridges the gap between a Submit
	// and that submitter's Wait: the Submit takes a reference under the
	// service lock, and the first Wait per pending reference inherits
	// it, so a concurrent abort by an earlier waiter cannot cancel a job
	// another client was just handed. A Submit must therefore be
	// followed by Wait.
	waiters     int
	pendingRefs int

	submitted time.Time
	started   time.Time
}

// Info is a point-in-time snapshot of a job's state.
type Info struct {
	Status    Status
	Cached    bool // completed without an engine run (cache or store)
	FromStore bool // the cached result came from the persistent store
}

// Service is the co-emulation job service.
type Service struct {
	opts  Options
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup
	queue chan *Job
	cache *resultCache
	disk  *store.Store // optional persistent layer (nil = disabled)

	// space is a capacity-1 wakeup channel: workers signal it after
	// every dequeue so sweep submission can wait for queue room instead
	// of spinning (see SweepJob.submitPoint).
	space chan struct{}

	// frngMu guards frng, the seeded stream behind every service-layer
	// fault decision (worker panics, slow runs); nil without a plan.
	frngMu sync.Mutex
	frng   *rng.Source

	mu       sync.Mutex
	closed   bool
	seq      int64
	inflight map[string]*Job // canonical hash -> queued/running job

	// Cumulative counters surfaced by Counters.
	engineRuns     int64
	sweeps         int64
	sweepPoints    int64
	workerPanics   int64
	jobTimeouts    int64
	faultsInjected int64
}

// New starts a service with the given options.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Service{
		opts:     opts,
		ctx:      ctx,
		stop:     stop,
		queue:    make(chan *Job, opts.QueueDepth),
		space:    make(chan struct{}, 1),
		cache:    newResultCache(opts.CacheSize),
		disk:     opts.Store,
		inflight: make(map[string]*Job),
	}
	if opts.Faults != nil {
		s.frng = rng.New(faultplan.Mix(opts.Faults.Seed, 0x5e54))
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				// Queue room opened up: wake one submitter waiting out
				// backpressure (non-blocking; the flag is level-triggered).
				select {
				case s.space <- struct{}{}:
				default:
				}
				s.runJob(job)
			}
		}()
	}
	return s
}

// QueueDepth reports the pending-job queue's occupancy and capacity.
func (s *Service) QueueDepth() (pending, capacity int) {
	return len(s.queue), cap(s.queue)
}

// Saturated reports whether the pending-job queue is full — the state
// in which Submit returns ErrQueueFull and an HTTP front end should
// shed load instead of stalling clients.
func (s *Service) Saturated() bool {
	return len(s.queue) >= cap(s.queue)
}

// Close shuts the service down: no new submissions, every queued and
// running job is canceled, and Close returns once the workers exit.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Cancel in-flight engine runs, then let the workers drain the
	// queue (each queued job is already canceled, so draining is fast).
	s.stop()
	close(s.queue)
	s.wg.Wait()
}

// Submit enqueues a run for the given spec, deduplicating against the
// result cache (completed identical runs) and in-flight jobs (running
// identical runs).
//
// The returned job may already be complete (cache hit); callers must
// Wait regardless: the job runs only as long as a waiter holds it.
func (s *Service) Submit(sp *spec.Spec) (*Job, error) {
	hash, err := sp.CanonicalHash()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if job, err, handled := s.submitFastLocked(sp, hash, false); handled {
		s.mu.Unlock()
		return job, err
	}
	probeDisk := s.disk != nil
	s.mu.Unlock()

	// Probe the persistent store outside the service lock: a store read
	// is file I/O and must not stall job bookkeeping. The memory layers
	// are re-checked under the lock afterwards, so whatever landed in
	// the meantime (a finished duplicate, an in-flight submission)
	// still wins; the re-check does not count a second cache lookup.
	var stored *Result
	if probeDisk {
		rstart := time.Now()
		if data, ok := s.disk.Get(hash); ok {
			stored = &Result{JSON: data}
		}
		s.opts.Metrics.observeStoreRead(time.Since(rstart))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if job, err, handled := s.submitFastLocked(sp, hash, true); handled {
		return job, err
	}
	if stored != nil {
		// Promote the persisted result into the memory cache so the
		// next duplicate skips the disk.
		s.cache.Put(hash, stored)
		return s.newCachedJobLocked(sp, hash, stored, true), nil
	}

	job := s.newJobLocked(sp, hash)
	job.pendingRefs++
	select {
	case s.queue <- job:
	default:
		job.cancel()
		return nil, ErrQueueFull
	}
	s.inflight[hash] = job
	return job, nil
}

// submitFastLocked resolves a submission against the in-memory layers
// — shutdown state, the result cache, and in-flight duplicates — and
// reports whether it was handled. A recheck does not count a cache
// lookup, so each submission counts one hit or miss. Caller holds s.mu.
func (s *Service) submitFastLocked(sp *spec.Spec, hash string, recheck bool) (*Job, error, bool) {
	if s.closed {
		return nil, ErrClosed, true
	}
	if res, ok := s.cache.Get(hash, recheck); ok {
		return s.newCachedJobLocked(sp, hash, res, false), nil, true
	}
	if job, ok := s.inflight[hash]; ok {
		// Hold a reference for this submitter until its Wait runs, so
		// an abort by the original waiter in the interim cannot cancel
		// a job we just handed out.
		job.pendingRefs++
		return job, nil, true
	}
	return nil, nil, false
}

// newCachedJobLocked registers a job born terminal: its result came
// from the memory cache or the persistent store. Caller holds s.mu.
func (s *Service) newCachedJobLocked(sp *spec.Spec, hash string, res *Result, fromStore bool) *Job {
	job := s.newJobLocked(sp, hash)
	job.status = StatusDone
	job.result = res
	job.cached = true
	job.fromStore = fromStore
	job.finished = true
	job.cancel() // release the context immediately; nothing runs
	close(job.done)
	return job
}

// newJobLocked allocates a job. Caller holds s.mu.
func (s *Service) newJobLocked(sp *spec.Spec, hash string) *Job {
	s.seq++
	job := &Job{
		svc:       s,
		seq:       s.seq,
		hash:      hash,
		spec:      sp,
		status:    StatusQueued,
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	job.ctx, job.cancel = context.WithCancel(s.ctx)
	return job
}

// CacheStats reports result-cache hits, misses and current size.
func (s *Service) CacheStats() (hits, misses int64, size int) {
	return s.cache.Stats()
}

// Lookup resolves a canonical spec hash against the completed-result
// layers only — the in-memory cache, then the persistent store — and
// never schedules work: a miss simply reports false. It backs the
// daemon's lightweight GET /v1/results/{hash} endpoint, which fleet
// clients probe before re-submitting a point so a store-held result is
// spliced into the sweep instead of re-queued. A store hit is promoted
// into the memory cache, mirroring Submit.
func (s *Service) Lookup(hash string) (*Result, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	if res, ok := s.cache.Get(hash, false); ok {
		s.mu.Unlock()
		return res, true
	}
	disk := s.disk
	s.mu.Unlock()
	if disk == nil {
		return nil, false
	}
	rstart := time.Now()
	data, ok := disk.Get(hash)
	s.opts.Metrics.observeStoreRead(time.Since(rstart))
	if !ok {
		return nil, false
	}
	res := &Result{JSON: data}
	s.mu.Lock()
	if !s.closed {
		s.cache.Put(hash, res)
	}
	s.mu.Unlock()
	return res, true
}

// StoreStats snapshots the persistent store's counters; ok is false
// when the service runs without a store.
func (s *Service) StoreStats() (store.Stats, bool) {
	if s.disk == nil {
		return store.Stats{}, false
	}
	return s.disk.Stats(), true
}

// Counters is the service-wide counter snapshot served by /v1/stats:
// memory-cache and persistent-store traffic, real engine executions,
// and sweep volume.
type Counters struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`

	// EngineRuns counts jobs that actually executed the engine (every
	// terminal job is either an engine run, a cache/store hit, or was
	// canceled while still queued).
	EngineRuns int64 `json:"engine_runs"`

	// Sweeps counts StartSweepPoints calls; SweepPoints the points
	// they expanded to.
	Sweeps      int64 `json:"sweeps"`
	SweepPoints int64 `json:"sweep_points"`

	// Store* mirror the persistent store's own counters; all zero when
	// no store is configured.
	StoreHits      int64 `json:"store_hits"`
	StoreMisses    int64 `json:"store_misses"`
	StorePuts      int64 `json:"store_puts"`
	StoreEvictions int64 `json:"store_evictions"`
	StoreEntries   int   `json:"store_entries"`

	// Fault observations: worker panics recovered (organic or
	// injected), jobs failed on their run.timeout deadline, store
	// entries quarantined after failing content verification, and
	// service-layer faults fired by the active plan (slow runs and
	// panics actually injected, before their outcome).
	WorkerPanics     int64 `json:"worker_panics"`
	JobTimeouts      int64 `json:"job_timeouts"`
	StoreQuarantined int64 `json:"store_quarantined"`
	FaultsInjected   int64 `json:"faults_injected"`
}

// Counters snapshots the service-wide counters. The whole snapshot is
// taken inside one critical section — cache and store statistics
// included — so the fields are mutually consistent: a scrape can never
// observe, say, an engine run without the cache miss that caused it.
// (Lock order s.mu → cache.mu is the submission path's order; the
// store's counters are plain atomics behind its own mutex and never
// call back into the service.)
func (s *Service) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits, misses, size := s.cache.Stats()
	c := Counters{
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheSize:      size,
		EngineRuns:     s.engineRuns,
		Sweeps:         s.sweeps,
		SweepPoints:    s.sweepPoints,
		WorkerPanics:   s.workerPanics,
		JobTimeouts:    s.jobTimeouts,
		FaultsInjected: s.faultsInjected,
	}
	if s.disk != nil {
		st := s.disk.Stats()
		c.StoreHits, c.StoreMisses = st.Hits, st.Misses
		c.StorePuts, c.StoreEvictions = st.Puts, st.Evictions
		c.StoreEntries = st.Entries
		c.StoreQuarantined = st.Quarantined
	}
	return c
}

// runJob executes one job on a worker.
func (s *Service) runJob(job *Job) {
	s.mu.Lock()
	if job.status != StatusQueued {
		s.mu.Unlock()
		return
	}
	if job.ctx.Err() != nil {
		s.finishLocked(job, StatusCanceled, nil, job.ctx.Err())
		s.mu.Unlock()
		return
	}
	job.status = StatusRunning
	job.started = time.Now()
	s.engineRuns++
	s.mu.Unlock()
	s.opts.Metrics.observeQueueWait(job.started.Sub(job.submitted))

	timeout := job.spec.Run.JobTimeout()
	rep, err := s.executeJob(job, timeout)
	s.opts.Metrics.observeJob(time.Since(job.started))
	if err == nil {
		s.opts.Metrics.observeReport(rep)
	}

	var res *Result
	if err == nil {
		res, err = NewResult(rep)
	}
	if err == nil && s.disk != nil {
		// Write-through before the result becomes observable: once a
		// waiter sees the job done, a restarted daemon can serve it. A
		// store failure only costs persistence, never the run.
		wstart := time.Now()
		if perr := s.disk.Put(job.hash, res.JSON); perr != nil {
			s.logf("store write-through for %s: %v", job.hash, perr)
		}
		s.opts.Metrics.observeStoreWrite(time.Since(wstart))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.cache.Put(job.hash, res)
		s.finishLocked(job, StatusDone, res, nil)
	case errors.Is(err, ErrWorkerPanic):
		s.workerPanics++
		s.finishLocked(job, StatusFailed, nil, err)
	case errors.Is(err, context.DeadlineExceeded) && job.ctx.Err() == nil:
		// The job's own deadline fired while the submission context is
		// still live: a timeout failure, not a client cancellation.
		s.jobTimeouts++
		s.finishLocked(job, StatusFailed, nil, fmt.Errorf("%w (run.timeout %v)", ErrJobTimeout, timeout))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finishLocked(job, StatusCanceled, nil, err)
	default:
		s.finishLocked(job, StatusFailed, nil, err)
	}
}

// executeJob runs one job's engine under its deadline and the active
// fault plan, converting a panicking run (organic or injected) into an
// ErrWorkerPanic failure so the worker survives.
func (s *Service) executeJob(job *Job, timeout time.Duration) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
	}()
	ctx := job.ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if f := s.serviceFaults(); f != nil {
		if f.SlowRun > 0 && f.SlowDelayMS > 0 && s.faultHit(f.SlowRun) {
			s.noteFaultInjected()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(f.SlowDelayMS) * time.Millisecond):
			}
		}
		if f.WorkerPanic > 0 && s.faultHit(f.WorkerPanic) {
			s.noteFaultInjected()
			panic("faultplan: injected worker panic")
		}
	}
	chf, seed := s.jobChannelFaults(job)
	return runSpec(ctx, job.spec, chf, seed)
}

// noteFaultInjected counts one service-layer fault actually fired by
// the active plan.
func (s *Service) noteFaultInjected() {
	s.mu.Lock()
	s.faultsInjected++
	s.mu.Unlock()
}

// serviceFaults returns the active plan's service section, if any.
func (s *Service) serviceFaults() *faultplan.ServiceFault {
	if s.opts.Faults == nil {
		return nil
	}
	return s.opts.Faults.Service
}

// faultHit draws one seeded fault decision.
func (s *Service) faultHit(p float64) bool {
	s.frngMu.Lock()
	defer s.frngMu.Unlock()
	return s.frng.Bool(p)
}

// jobChannelFaults returns the channel faults to apply to one job's
// engine run: the spec's own plan wins (Compile applies it; returning
// nil here leaves it in place), otherwise the service-level plan's
// channel section with a per-job seed — each retry of a fated point is
// a new job with a new seq, so it draws a fresh fault sequence instead
// of failing forever.
func (s *Service) jobChannelFaults(job *Job) (*faultplan.ChannelFault, uint64) {
	fp := s.opts.Faults
	if fp == nil || fp.Channel == nil {
		return nil, 0
	}
	if jp := job.spec.Run.FaultPlan; jp != nil && jp.Channel != nil {
		return nil, 0
	}
	return fp.Channel, faultplan.Mix(fp.Seed, uint64(job.seq))
}

// logf forwards to the configured warning logger, if any.
func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// finishLocked publishes a job's terminal state exactly once. Caller
// holds s.mu.
func (s *Service) finishLocked(job *Job, st Status, res *Result, err error) {
	if job.finished {
		return
	}
	job.finished = true
	job.status = st
	job.result = res
	job.err = err
	if s.inflight[job.hash] == job {
		delete(s.inflight, job.hash)
	}
	// Release the job's context registration in s.ctx; leaving it would
	// leak one context child per job for the service's lifetime.
	job.cancel()
	close(job.done)
}

// runSpec compiles and executes a spec under ctx. chf, when non-nil,
// is a service-level channel fault plan applied to the engine (a
// spec-level plan was already compiled in and is never overridden —
// jobChannelFaults returns nil for those specs).
func runSpec(ctx context.Context, sp *spec.Spec, chf *faultplan.ChannelFault, seed uint64) (*core.Report, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	if chf != nil && cfg.ChannelFaults == nil {
		cfg.ChannelFaults = chf
		cfg.ChannelFaultSeed = seed
	}
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, sp.Run.Cycles)
}

// Hash returns the canonical spec hash the job runs under.
func (j *Job) Hash() string { return j.hash }

// Info snapshots the job state.
func (j *Job) Info() Info {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return Info{Status: j.status, Cached: j.cached, FromStore: j.fromStore}
}

// Wait blocks until the job completes or ctx is done. If the waiting
// client abandons the job and no other waiter remains, the job is
// canceled — the engine run stops within one domain cycle.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	j.hold()
	defer j.release()

	select {
	case <-j.done:
		j.svc.mu.Lock()
		defer j.svc.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// hold takes a waiter reference, inheriting the one the caller's
// Submit took.
func (j *Job) hold() {
	j.svc.mu.Lock()
	j.waiters++
	if j.pendingRefs > 0 {
		j.pendingRefs--
	}
	j.svc.mu.Unlock()
}

// release drops one waiter reference, canceling an abandoned job.
func (j *Job) release() {
	j.svc.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0 && j.pendingRefs == 0 && !j.finished
	j.svc.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// drop is a Wait that gives up at once, canceling the job if no other
// client holds it. The caller must not Wait afterwards.
func (j *Job) drop() {
	j.hold()
	j.release()
}

// outcome returns a dropped job's result: its own once it has
// finished, otherwise err.
func (j *Job) outcome(err error) (*Result, error) {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	if j.finished {
		return j.result, j.err
	}
	return nil, err
}
