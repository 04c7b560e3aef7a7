package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coemu/internal/spec"
)

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// distinctPoints returns n testSpec points whose budgets differ by one
// cycle, so no two coalesce.
func distinctPoints(t *testing.T, n int, cycles int64) []*spec.Spec {
	t.Helper()
	points := make([]*spec.Spec, n)
	for i := range points {
		points[i] = testSpec(t, cycles+int64(i))
	}
	return points
}

// pointsQueued reads the point class's occupancy.
func (s *Service) pointsQueued() int { return len(s.points) }

// TestQueueClassRunAdmittedBehindFullPoints pins the head-of-line fix:
// with a sweep larger than the queue in flight, the point class is full
// and the service reads saturated, yet a run is admitted to its own
// class, starts after at most one point per worker, and completes
// while the sweep still has points to run.
func TestQueueClassRunAdmittedBehindFullPoints(t *testing.T) {
	const workers, depth, npoints = 1, 8, 20
	svc := newTestService(t, Options{Workers: workers, QueueDepth: depth})
	sw, err := svc.StartSweepPoints(context.Background(), distinctPoints(t, npoints, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// A worker's dequeue empties one slot until the parked sweep refills
	// it, so each reading is retried until the backlog shows in it.
	waitFor(t, "the point class to fill", func() bool { return svc.pointsQueued() == depth })
	waitFor(t, "Saturated to read the point backlog", svc.Saturated)
	waitFor(t, "QueueDepth to read the point backlog", func() bool {
		pending, _ := svc.QueueDepth()
		return pending >= depth
	})

	svc.mu.Lock()
	before := svc.engineRuns
	svc.mu.Unlock()
	job, err := svc.Submit(testSpec(t, 100000))
	if err != nil {
		t.Fatalf("run behind a full point class: %v, want it admitted", err)
	}
	if _, capacity := svc.QueueDepth(); capacity != 2*depth {
		t.Fatalf("QueueDepth capacity %d, want both classes' %d", capacity, 2*depth)
	}
	// While the run holds the only worker no other job can start, so
	// the engine-run count read then is the count at its start.
	var atStart int64
	waitFor(t, "the run to start", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		if job.finished {
			t.Fatal("the run finished before its start was observed")
		}
		atStart = svc.engineRuns
		return job.status == StatusRunning
	})
	if ahead := atStart - before - 1; ahead > workers {
		t.Fatalf("%d points started between the run's submission and its start, want at most %d (one per worker)", ahead, workers)
	}

	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cycles != 100000 {
		t.Fatalf("run committed %d cycles", res.Report.Cycles)
	}
	if n := svc.Counters().EngineRuns; n >= 1+npoints {
		t.Fatalf("%d engine runs when the run completed: every point had started, want the run done before the sweep's last point", n)
	}
	results := collect(t, sw)
	if len(results) != npoints {
		t.Fatalf("%d results for %d points", len(results), npoints)
	}
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
	}
}

// TestQueueClassCloseSettlesBoth closes a service holding a running
// job, queued runs, a full point class and points still waiting for
// room: Close returns, and every run and every sweep result settles
// canceled (a point never queued reports ErrClosed). None hangs.
func TestQueueClassCloseSettlesBoth(t *testing.T) {
	const depth = 4
	svc := New(Options{Workers: 1, QueueDepth: depth})
	blocker, err := svc.Submit(testSpec(t, int64(1)<<40))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocker to start", func() bool { return svc.Counters().EngineRuns == 1 })
	jobs := []*Job{blocker}
	for i := int64(0); i < 3; i++ {
		job, err := svc.Submit(testSpec(t, (2+i)<<40))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	sw, err := svc.StartSweepPoints(context.Background(), distinctPoints(t, depth+2, int64(8)<<40))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the point class to fill", func() bool { return svc.pointsQueued() == depth })

	waits := make(chan error, len(jobs))
	for _, job := range jobs {
		go func() {
			_, err := job.Wait(context.Background())
			waits <- err
		}()
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	timeout := time.After(30 * time.Second)
	select {
	case <-closed:
	case <-timeout:
		t.Fatal("Close hung with both classes holding jobs")
	}
	for range jobs {
		select {
		case err := <-waits:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run waiter settled with %v, want context.Canceled", err)
			}
		case <-timeout:
			t.Fatal("a run waiter hung after Close")
		}
	}
	for i, job := range jobs {
		if st := job.Info().Status; st != StatusCanceled {
			t.Fatalf("run %d is %s after Close, want canceled", i, st)
		}
	}
	var results []PointResult
	for done := false; !done; {
		select {
		case pr, ok := <-sw.Results():
			if !ok {
				done = true
				break
			}
			results = append(results, pr)
		case <-timeout:
			t.Fatal("sweep results hung after Close")
		}
	}
	if len(results) != depth+2 {
		t.Fatalf("%d sweep results, want %d", len(results), depth+2)
	}
	for i, pr := range results {
		if !errors.Is(pr.Err, context.Canceled) && !errors.Is(pr.Err, ErrClosed) {
			t.Fatalf("point %d settled with %v, want canceled (or ErrClosed if never queued)", i, pr.Err)
		}
	}
	if n := svc.Counters().EngineRuns; n != 1 {
		t.Fatalf("%d engine runs, want 1 (a queued job started its engine after Close)", n)
	}
}

// TestQueueClassRunCoalescesWithQueuedPoint submits a run whose
// canonical hash equals a queued sweep point's: it joins that job
// instead of queueing a second one, and both complete from one engine
// run.
func TestQueueClassRunCoalescesWithQueuedPoint(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	blocker, err := svc.Submit(testSpec(t, int64(1)<<40))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocker to start", func() bool { return svc.Counters().EngineRuns == 1 })
	sw, err := svc.StartSweepPoints(context.Background(), []*spec.Spec{testSpec(t, 1100), testSpec(t, 1200)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both points to queue", func() bool { return svc.pointsQueued() == 2 })

	job, err := svc.Submit(testSpec(t, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if pending, _ := svc.QueueDepth(); pending != 2 {
		t.Fatalf("%d jobs queued after the duplicate run, want the 2 points (it queued a job of its own)", pending)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := blocker.Wait(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker abort returned %v", err)
	}

	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Cycles != 1200 {
		t.Fatalf("coalesced run committed %d cycles", res.Report.Cycles)
	}
	results := collect(t, sw)
	if len(results) != 2 || results[1].Err != nil {
		t.Fatalf("sweep results %+v", results)
	}
	if results[1].Hash != job.Hash() || string(results[1].Result.JSON) != string(res.JSON) {
		t.Fatal("the run and its duplicate point answered differently")
	}
	if n := svc.Counters().EngineRuns; n != 3 {
		t.Fatalf("%d engine runs, want 3 (blocker and two points; the run adds none)", n)
	}
}

// TestQueueClassRunsDoNotStarveSweep keeps the run class busy with
// three closed-loop submitters on one worker while a sweep runs: the
// alternation still serves every point, and runs keep completing
// meanwhile.
func TestQueueClassRunsDoNotStarveSweep(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	const submitters, budget = 3, 2000
	runs := distinctPoints(t, 600, budget)
	var next, served atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := next.Add(1) - 1
				if i >= int64(len(runs)) {
					errs <- errors.New("the run supply ran out before the sweep settled")
					return
				}
				job, err := svc.Submit(runs[i])
				if err == nil {
					_, err = job.Wait(context.Background())
				}
				if err != nil {
					errs <- err
					return
				}
				served.Add(1)
			}
		}()
	}
	waitFor(t, "runs to flow", func() bool { return served.Load() >= submitters })

	const npoints = 8
	sw, err := svc.StartSweepPoints(context.Background(), distinctPoints(t, npoints, 5000))
	if err != nil {
		t.Fatal(err)
	}
	atStart := served.Load()
	results := collect(t, sw)
	during := served.Load() - atStart
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(results) != npoints {
		t.Fatalf("%d results for %d points", len(results), npoints)
	}
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
	}
	if during < npoints/2 {
		t.Fatalf("%d runs completed while %d points ran, want the classes to alternate", during, npoints)
	}
}
