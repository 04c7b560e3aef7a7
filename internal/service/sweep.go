package service

import (
	"context"
	"errors"
	"time"

	"coemu/internal/spec"
)

// PointResult is one expanded sweep point's outcome, delivered in
// point order on SweepJob.Results.
type PointResult struct {
	// Index is the point's position in the expanded grid.
	Index int
	// Name is the expanded point's spec name ("base[run.accuracy=0.9]").
	Name string
	// Hash is the point's canonical spec hash ("" if submission failed
	// before hashing).
	Hash string
	// Result is the completed run's result; nil when Err is set.
	Result *Result
	// Err is the point's submission, run or cancellation error.
	Err error
	// Cached marks a point answered without an engine run; FromStore
	// narrows that to the persistent store.
	Cached    bool
	FromStore bool
}

// SweepJob is one submitted sweep: every expanded point fanned out
// over the service's worker pool as an ordinary (deduplicated,
// cancelable) job. Results delivers per-point outcomes in point order
// as they settle.
type SweepJob struct {
	total   int
	results chan PointResult
	svc     *Service
}

// StartSweepPoints fans an expanded point list (spec.SweepSpec.Expand)
// out over the worker pool. Points are submitted eagerly (so the pool
// saturates) and their results are delivered in point order on
// Results. ctx governs the whole sweep: canceling it abandons every
// point the way an aborting client abandons a single run — points no
// other client shares are canceled at domain-cycle granularity.
//
// Duplicate points — within the sweep or against other traffic —
// coalesce exactly like duplicate Submit calls: one engine run per
// distinct canonical hash, the rest served from the cache or store.
func (s *Service) StartSweepPoints(ctx context.Context, points []*spec.Spec) (*SweepJob, error) {
	if len(points) == 0 {
		return nil, errors.New("service: sweep has no points")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.sweeps++
	s.sweepPoints += int64(len(points))
	s.mu.Unlock()

	sw := &SweepJob{
		total:   len(points),
		results: make(chan PointResult, len(points)),
		svc:     s,
	}
	go sw.run(ctx, points)
	return sw, nil
}

// Total returns the number of expanded points.
func (sw *SweepJob) Total() int { return sw.total }

// Results delivers one PointResult per point, in point order, as they
// settle. The channel is closed after the last point.
func (sw *SweepJob) Results() <-chan PointResult { return sw.results }

// run submits every point, then waits them out in order. Submission is
// eager so up to Workers points run concurrently; waiting in order
// keeps Results deterministic. On ctx cancellation every point not yet
// waited is released at once, the last point first: released in point
// order, a worker freed by one canceled point could dequeue the next
// before its release landed and start its engine.
func (sw *SweepJob) run(ctx context.Context, points []*spec.Spec) {
	defer close(sw.results)

	jobs := make([]*Job, len(points))
	errs := make([]error, len(points))
	submitted := make([]time.Time, len(points))
	for i, sp := range points {
		submitted[i] = time.Now()
		jobs[i], errs[i] = sw.submitPoint(ctx, sp)
	}

	canceled := false
	for i := range points {
		pr := PointResult{Index: i, Name: points[i].Name, Err: errs[i]}
		if job := jobs[i]; job != nil {
			pr.Hash = job.Hash()
			if !canceled {
				select {
				case <-job.done:
					job.drop()
				case <-ctx.Done():
					for k := len(jobs) - 1; k >= i; k-- {
						if jobs[k] != nil {
							jobs[k].drop()
						}
					}
					canceled = true
				}
			}
			pr.Result, pr.Err = job.outcome(ctx.Err())
			info := job.Info()
			pr.Cached, pr.FromStore = info.Cached, info.FromStore
			sw.svc.opts.Metrics.observeSweepPoint(time.Since(submitted[i]))
		}
		sw.results <- pr // buffered to Total; never blocks
	}
}

// submitPoint submits one point, riding out queue backpressure until
// ctx is canceled. Instead of polling on a timer it parks on the
// service's wakeup channel, which a worker signals on every dequeue —
// a full queue costs one channel receive per freed slot, not a spin.
// Several waiting sweeps may race for one slot; the losers miss the
// signal, fail the next Submit, and park again, so progress is
// guaranteed without a thundering herd.
func (sw *SweepJob) submitPoint(ctx context.Context, sp *spec.Spec) (*Job, error) {
	for {
		job, err := sw.svc.Submit(sp)
		if err == nil || !errors.Is(err, ErrQueueFull) {
			return job, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-sw.svc.ctx.Done():
			return nil, ErrClosed
		case <-sw.svc.space:
		}
	}
}
