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
// pattern); all job bookkeeping is guarded by one service mutex. Queued
// jobs wait in one of two FIFO classes, each bounded by QueueDepth:
// runs (Submit) and sweep points (StartSweepPoints). When both classes
// hold jobs, a free worker takes the head of the class it did not take
// last, so a run waits behind at most one point per worker however
// large the grids ahead of it are, and no sweep is starved by runs.
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
	// QueueDepth bounds each of the two queue classes (runs and sweep
	// points). Default 256.
	QueueDepth int
	// Store, when non-nil, is the persistent result store used as a
	// write-through layer under the in-memory cache.
	Store *store.Store
	// Logf, when non-nil, receives operational warnings (e.g. a failed
	// store write-through). log.Printf fits.
	Logf func(format string, args ...any)
	// Faults, when non-nil, injects chaos-testing faults per its
	// probabilities: the service section drives worker panics and slow
	// runs. The store section is consumed by store.Open, not here. Nil
	// injects nothing.
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

	// Host timings of an executed job, kept for Info: submitted and
	// started bound its queue wait, engine is the engine run's wall
	// time and storeWrite the persistent store's write-through.
	submitted  time.Time
	started    time.Time
	engine     time.Duration
	storeWrite time.Duration
}

// Info is a point-in-time snapshot of a job's state.
type Info struct {
	Status    Status
	Cached    bool // completed without an engine run (cache or store)
	FromStore bool // the cached result came from the persistent store

	// Host timings of a finished engine run (zero otherwise): the wait
	// in its queue class, the engine run, and the store write-through
	// (zero without a store).
	Queue, Engine, StoreWrite time.Duration
}

// Service is the co-emulation job service.
type Service struct {
	opts  Options
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup
	cache *resultCache
	disk  *store.Store // optional persistent layer (nil = disabled)

	// runs and points are the two queue classes, each bounded by
	// QueueDepth: jobs from Submit and jobs from sweep points. Workers
	// alternate between them (see work).
	runs, points chan *Job

	// space is a capacity-1 wakeup channel: workers signal it after
	// every point dequeue so sweep submission can wait for room in the
	// point class instead of spinning (see SweepJob.submitPoint).
	space chan struct{}

	// frngMu guards frng, the seeded stream behind every service-layer
	// fault decision (worker panics, slow runs); nil without a plan.
	frngMu sync.Mutex
	frng   *rng.Source

	mu       sync.Mutex
	closed   bool
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
		runs:     make(chan *Job, opts.QueueDepth),
		points:   make(chan *Job, opts.QueueDepth),
		space:    make(chan struct{}, 1),
		cache:    newResultCache(opts.CacheSize),
		disk:     opts.Store,
		inflight: make(map[string]*Job),
	}
	if opts.Faults != nil {
		s.frng = rng.New(faultplan.Mix(opts.Faults.Seed, 0x5e54))
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.work()
	}
	return s
}

// The queue classes, as indexes into a worker's class array.
const (
	classRun = iota
	classPoint
)

// work is one worker's loop. When both queue classes hold jobs it takes
// the head of the class it did not take last; otherwise it takes
// whichever job comes first. It returns once Close has closed both
// classes and they are drained.
func (s *Service) work() {
	defer s.wg.Done()
	classes := [2]chan *Job{classRun: s.runs, classPoint: s.points}
	last := classPoint // a fresh worker serves a run first
	for {
		c, job := take(&classes, 1-last)
		if job == nil {
			return
		}
		last = c
		if c == classPoint {
			// Point-class room opened up: wake one sweep waiting out
			// backpressure (non-blocking; the flag is level-triggered).
			select {
			case s.space <- struct{}{}:
			default:
			}
		}
		s.runJob(job)
	}
}

// take dequeues the next job and the index of its class: the head of
// class first if it holds one, else whichever job the other class holds
// or arrives first. Each pass makes one receive; a receive that finds
// its class closed and drained sets it to nil, so later passes skip
// it, and take returns a nil job once both are.
func take(classes *[2]chan *Job, first int) (int, *Job) {
	for classes[0] != nil || classes[1] != nil {
		var c int
		var job *Job
		var ok bool
		select {
		case job, ok = <-classes[first]:
			c = first
		default:
			select {
			case job, ok = <-classes[0]:
				c = 0
			case job, ok = <-classes[1]:
				c = 1
			}
		}
		if ok {
			return c, job
		}
		classes[c] = nil
	}
	return 0, nil
}

// QueueDepth reports the backlog and capacity summed over both queue
// classes (runs and sweep points), so a prober's occupancy ratio reads
// the whole backlog.
func (s *Service) QueueDepth() (pending, capacity int) {
	return len(s.runs) + len(s.points), cap(s.runs) + cap(s.points)
}

// Saturated reports whether either queue class is full: the run class
// (Submit returns ErrQueueFull) or the point class (sweep points wait
// for room). An HTTP front end sheds new sweeps and fails its health
// check while it holds, instead of stalling clients.
func (s *Service) Saturated() bool {
	return len(s.runs) >= cap(s.runs) || len(s.points) >= cap(s.points)
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
	// Cancel in-flight engine runs, then let the workers drain both
	// classes (each queued job is already canceled, so draining is
	// fast and settles every waiter).
	s.stop()
	close(s.runs)
	close(s.points)
	s.wg.Wait()
}

// Submit enqueues a run for the given spec in the run class,
// deduplicating against the result cache (completed identical runs)
// and in-flight jobs (queued or running identical runs, sweep points
// included). It returns ErrQueueFull only when the run class is full;
// a backlog of sweep points never sheds a run.
//
// The returned job may already be complete (cache hit); callers must
// Wait regardless: the job runs only as long as a waiter holds it.
func (s *Service) Submit(sp *spec.Spec) (*Job, error) {
	return s.submit(sp, s.runs)
}

// submit is Submit into the given queue class.
func (s *Service) submit(sp *spec.Spec, class chan *Job) (*Job, error) {
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

	job := s.newJob(sp, hash)
	job.pendingRefs++
	select {
	case class <- job:
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
	job := s.newJob(sp, hash)
	job.status = StatusDone
	job.result = res
	job.cached = true
	job.fromStore = fromStore
	job.finished = true
	job.cancel() // release the context immediately; nothing runs
	close(job.done)
	return job
}

// newJob allocates a queued job.
func (s *Service) newJob(sp *spec.Spec, hash string) *Job {
	job := &Job{
		svc:       s,
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
	engine := time.Since(job.started)
	s.opts.Metrics.observeJob(engine)
	if err == nil {
		s.opts.Metrics.observeReport(rep)
	}

	var res *Result
	if err == nil {
		res, err = NewResult(rep)
	}
	var storeWrite time.Duration
	if err == nil && s.disk != nil {
		// Write-through before the result becomes observable: once a
		// waiter sees the job done, a restarted daemon can serve it. A
		// store failure only costs persistence, never the run.
		wstart := time.Now()
		if perr := s.disk.Put(job.hash, res.JSON); perr != nil {
			s.logf("store write-through for %s: %v", job.hash, perr)
		}
		storeWrite = time.Since(wstart)
		s.opts.Metrics.observeStoreWrite(storeWrite)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	job.engine, job.storeWrite = engine, storeWrite
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
	return runSpec(ctx, job.spec)
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

// runSpec compiles and executes a spec under ctx.
func runSpec(ctx context.Context, sp *spec.Spec) (*core.Report, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
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
	info := Info{Status: j.status, Cached: j.cached, FromStore: j.fromStore}
	if j.finished && !j.started.IsZero() {
		info.Queue = j.started.Sub(j.submitted)
		info.Engine, info.StoreWrite = j.engine, j.storeWrite
	}
	return info
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
