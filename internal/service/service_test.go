package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"coemu/internal/spec"
)

// testSpec builds the canonical ALS stream spec with a distinguishing
// cycle budget (distinct budgets hash to distinct runs).
func testSpec(t *testing.T, cycles int64) *spec.Spec {
	t.Helper()
	src := fmt.Sprintf(`{
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": %d}
	}`, cycles)
	s, err := spec.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

func TestSubmitAndWait(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	job, err := svc.Submit(testSpec(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Cycles != 2000 {
		t.Fatalf("result %+v, want a 2000-cycle in-memory report", res)
	}
	info := job.Info()
	if info.Status != StatusDone || info.Cached {
		t.Fatalf("info %+v, want done/uncached", info)
	}
}

func TestDuplicateServedFromCacheBitIdentical(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	first, err := svc.Submit(testSpec(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	second, err := svc.Submit(testSpec(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info().Cached {
		t.Fatal("duplicate spec not served from cache")
	}
	if res1 != res2 {
		t.Fatal("cache hit returned a different result object")
	}
	if string(res1.JSON) != string(res2.JSON) {
		t.Fatal("cache hit serialized differently from the original run")
	}
	b1, err := json.Marshal(NewReportView(res1.Report))
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(res1.JSON) {
		t.Fatal("canonical result bytes disagree with a fresh projection")
	}
	if hits, _, _ := svc.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestCacheCountsOneLookupPerSubmission pins the cache counters to one
// lookup per submission: Submit re-checks the memory layers after its
// store probe, and that re-check used to count a second miss.
func TestCacheCountsOneLookupPerSubmission(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	for i, want := range []struct{ hits, misses int64 }{{0, 1}, {1, 1}} {
		job, err := svc.Submit(testSpec(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := svc.CacheStats(); hits != want.hits || misses != want.misses {
			t.Fatalf("after submission %d: cache hits %d, misses %d, want %d and %d",
				i+1, hits, misses, want.hits, want.misses)
		}
	}
}

func TestConcurrentDistinctAndDuplicateSubmissions(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4})
	// 4 distinct specs, each submitted 4 times concurrently: every
	// duplicate must coalesce onto one run (or its cached result) and
	// every report must match its spec's cycle budget.
	const distinct, dups = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, distinct*dups)
	for d := 0; d < distinct; d++ {
		cycles := int64(1000 + 500*d)
		for k := 0; k < dups; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				job, err := svc.Submit(testSpec(t, cycles))
				if err != nil {
					errs <- err
					return
				}
				res, err := job.Wait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if res.Report.Cycles != cycles {
					errs <- fmt.Errorf("got %d cycles, want %d", res.Report.Cycles, cycles)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every duplicate coalesced onto one run per distinct spec: the
	// cache holds exactly `distinct` entries, and a fresh submission of
	// each spec is now a pure hit.
	if _, _, size := svc.CacheStats(); size != distinct {
		t.Fatalf("cache holds %d entries, want %d", size, distinct)
	}
	for d := 0; d < distinct; d++ {
		job, err := svc.Submit(testSpec(t, int64(1000+500*d)))
		if err != nil {
			t.Fatal(err)
		}
		if !job.Info().Cached {
			t.Fatalf("re-submission of spec %d missed the cache", d)
		}
	}
}

func TestClientAbortCancelsSoleWaiterJob(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	// A budget big enough that only cancellation finishes it quickly.
	big := testSpec(t, int64(1)<<40)
	job, err := svc.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel() // the client aborts
	}()
	if _, err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait returned %v, want context.Canceled", err)
	}
	// The abandoned job must reach a terminal canceled state promptly
	// (the engine polls per domain cycle).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info := job.Info(); info.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s long after abort", job.Info().Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSecondWaiterPinsEphemeralJob(t *testing.T) {
	// Every job lives only as long as a waiter holds it. A second live
	// waiter keeps the run going when the first one aborts.
	svc := newTestService(t, Options{Workers: 1})
	job, err := svc.Submit(testSpec(t, 200000))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	held := make(chan outcome, 1)
	go func() {
		res, err := job.Wait(context.Background())
		held <- outcome{res, err}
	}()
	// The aborting waiter must come second: had it inherited the
	// Submit's reference and released it first, it would have been the
	// last waiter.
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.mu.Lock()
		n := job.waiters
		svc.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted wait returned %v", err)
	}
	// The job survives the abort because the first waiter still holds it.
	got := <-held
	if got.err != nil {
		t.Fatalf("held job failed: %v", got.err)
	}
	if got.res.Report.Cycles != 200000 {
		t.Fatalf("ran %d cycles", got.res.Report.Cycles)
	}
}

func TestEphemeralDuplicateSurvivesFirstWaiterAbort(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	sp := testSpec(t, 300000)
	j1, err := svc.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// A second client submits the same spec before the first one's
	// Wait/abort resolves: the submit itself must hold the job.
	j2, err := svc.Submit(testSpec(t, 300000))
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j1 {
		t.Fatal("duplicate in-flight submission created a second job")
	}
	// The first client aborts before the second client ever waits.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j1.Wait(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted wait returned %v", err)
	}
	if info := j1.Info(); info.Status == StatusCanceled {
		t.Fatal("job canceled while a second submitter still held it")
	}
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("second submitter's run failed: %v", err)
	}
	if res.Report.Cycles != 300000 {
		t.Fatalf("ran %d cycles", res.Report.Cycles)
	}
}

func TestCloseCancelsInFlight(t *testing.T) {
	svc := New(Options{Workers: 2})
	a, err := svc.Submit(testSpec(t, int64(1)<<40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(testSpec(t, int64(2)<<40))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	svc.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("close took %v", elapsed)
	}
	for _, job := range []*Job{a, b} {
		if info := job.Info(); info.Status != StatusCanceled {
			t.Fatalf("job %s after close, want canceled", info.Status)
		}
	}
	if _, err := svc.Submit(testSpec(t, 100)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close returned %v", err)
	}
}

func TestInvalidSpecRejectedAtSubmit(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	bad := testSpec(t, 100)
	bad.Run.Mode = "bogus"
	if _, err := svc.Submit(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestQueueBackpressure(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	if _, err := svc.Submit(testSpec(t, int64(1)<<40)); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot, then overflow it. Distinct cycle
	// budgets keep the specs from coalescing.
	var sawFull bool
	for i := int64(0); i < 10; i++ {
		_, err := svc.Submit(testSpec(t, (3+i)<<40))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported backpressure")
	}
}
