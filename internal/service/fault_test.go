package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"coemu/internal/faultplan"
	"coemu/internal/spec"
)

// timeoutSpec is testSpec plus a run.timeout.
func timeoutSpec(t *testing.T, cycles int64, timeout string) *spec.Spec {
	t.Helper()
	src := fmt.Sprintf(`{
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": %d, "timeout": %q}
	}`, cycles, timeout)
	s, err := spec.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkerPanicIsolatesJob(t *testing.T) {
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 3, Service: &faultplan.ServiceFault{WorkerPanic: 1}},
	})
	job, err := svc.Submit(testSpec(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Wait err = %v, want ErrWorkerPanic", err)
	}
	if got := job.Info().Status; got != StatusFailed {
		t.Fatalf("status = %s, want failed", got)
	}
	if got := svc.Counters().WorkerPanics; got != 1 {
		t.Fatalf("worker_panics = %d, want 1", got)
	}

	// The worker recovered: the pool keeps serving. A fault-free
	// service would be needed for success, so just verify the single
	// worker still processes jobs (they fail by injection, not by a
	// dead worker).
	job2, err := svc.Submit(testSpec(t, 2500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Wait(context.Background()); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("second Wait err = %v, want ErrWorkerPanic from a live worker", err)
	}
}

func TestExecuteJobRecoversPanics(t *testing.T) {
	// The recover contract, pinned directly: a panic mid-execution
	// (the injected one stands in for any engine panic) converts to an
	// ErrWorkerPanic return instead of unwinding the worker goroutine.
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 3, Service: &faultplan.ServiceFault{WorkerPanic: 1}},
	})
	job := &Job{svc: svc, spec: testSpec(t, 100), ctx: context.Background()}
	rep, err := svc.executeJob(job, 0)
	if rep != nil || !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("executeJob = %v/%v, want nil/ErrWorkerPanic", rep, err)
	}

	// And a canceled submission context passes through untouched.
	plain := newTestService(t, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plain.executeJob(&Job{svc: plain, spec: testSpec(t, 100), ctx: ctx}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled executeJob err = %v, want context.Canceled", err)
	}
}

func TestJobTimeoutFailsWithCounter(t *testing.T) {
	// A slow-run injection far beyond the deadline forces the timeout
	// deterministically (probability 1).
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 5, Service: &faultplan.ServiceFault{SlowRun: 1, SlowDelayMS: 5000}},
	})
	job, err := svc.Submit(timeoutSpec(t, 2000, "50ms"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("Wait = %v/%v, want ErrJobTimeout", res, err)
	}
	if got := job.Info().Status; got != StatusFailed {
		t.Fatalf("status = %s, want failed (a deadline is not a client cancel)", got)
	}
	c := svc.Counters()
	if c.JobTimeouts != 1 {
		t.Fatalf("job_timeouts = %d, want 1", c.JobTimeouts)
	}
	if !strings.Contains(err.Error(), "50ms") {
		t.Fatalf("timeout error %q does not name the deadline", err)
	}
}

func TestClientCancelStillReportsCanceled(t *testing.T) {
	// With a deadline configured but the client aborting first, the job
	// must report canceled, not timed out.
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 5, Service: &faultplan.ServiceFault{SlowRun: 1, SlowDelayMS: 5000}},
	})
	job, err := svc.Submit(timeoutSpec(t, 2000, "1h"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		job.cancel()
	}()
	if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if got := job.Info().Status; got != StatusCanceled {
		t.Fatalf("status = %s, want canceled", got)
	}
	if got := svc.Counters().JobTimeouts; got != 0 {
		t.Fatalf("job_timeouts = %d, want 0", got)
	}
}
