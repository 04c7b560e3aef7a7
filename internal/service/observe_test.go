package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coemu/internal/faultplan"
	"coemu/internal/metrics"
	"coemu/internal/spec"
)

// monotoneFields lists the Counters fields that may never decrease
// between two snapshots.
func monotoneFields(c Counters) map[string]int64 {
	return map[string]int64{
		"cache_hits":      c.CacheHits,
		"cache_misses":    c.CacheMisses,
		"engine_runs":     c.EngineRuns,
		"sweeps":          c.Sweeps,
		"sweep_points":    c.SweepPoints,
		"store_hits":      c.StoreHits,
		"store_misses":    c.StoreMisses,
		"store_puts":      c.StorePuts,
		"worker_panics":   c.WorkerPanics,
		"job_timeouts":    c.JobTimeouts,
		"faults_injected": c.FaultsInjected,
	}
}

// TestCountersConsistentUnderLoad hammers Counters while a sweep and a
// stream of duplicate submissions run, asserting every monotone field
// only moves forward and the snapshot is internally consistent. Run
// with -race this also pins that the whole snapshot — cache and store
// statistics included — is taken under the service mutex rather than
// assembled from torn reads.
func TestCountersConsistentUnderLoad(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4, QueueDepth: 64})

	stopc := make(chan struct{})
	var wg sync.WaitGroup
	// Load: distinct and duplicate submissions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopc:
				return
			default:
			}
			job, err := svc.Submit(testSpec(t, int64(1000+i%8*250)))
			if err != nil {
				continue
			}
			job.Wait(context.Background())
		}
	}()
	// Scrapers: hammer snapshots and check monotonicity.
	snapErr := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := monotoneFields(svc.Counters())
			for i := 0; i < 500; i++ {
				c := svc.Counters()
				cur := monotoneFields(c)
				for k, v := range cur {
					if v < prev[k] {
						select {
						case snapErr <- fmt.Errorf("counter %s went backwards: %d -> %d", k, prev[k], v):
						default:
						}
						return
					}
				}
				// Internal consistency: every engine run was preceded
				// by a cache miss (runs never outnumber misses).
				if c.EngineRuns > c.CacheMisses {
					select {
					case snapErr <- fmt.Errorf("engine_runs %d > cache_misses %d in one snapshot", c.EngineRuns, c.CacheMisses):
					default:
					}
					return
				}
				prev = cur
			}
		}()
	}
	// One short sweep riding along.
	sw, err := svc.StartSweepPoints(context.Background(),
		[]*spec.Spec{testSpec(t, 1100), testSpec(t, 1200), testSpec(t, 1300)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, sw)); got != 3 {
		t.Fatalf("sweep delivered %d results, want 3", got)
	}
	close(stopc)
	wg.Wait()
	select {
	case err := <-snapErr:
		t.Fatal(err)
	default:
	}
}

// TestMetricsObservations wires a Metrics into a service, runs jobs and
// a sweep, and checks that the exposition carries the expected families
// with non-zero observations.
func TestMetricsObservations(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	svc := newTestService(t, Options{Workers: 2, Metrics: m})

	job, err := svc.Submit(testSpec(t, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sw, err := svc.StartSweepPoints(context.Background(),
		[]*spec.Spec{testSpec(t, 4000), testSpec(t, 4500)})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range collect(t, sw) {
		if pr.Err != nil {
			t.Fatalf("sweep point %d: %v", i, pr.Err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	fams, err := metrics.ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v\n%s", err, doc)
	}
	byName := map[string]metrics.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	// count sums a counter family's samples, or reads a histogram
	// family's observation count.
	count := func(name string) float64 {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from exposition:\n%s", name, doc)
		}
		var total float64
		for _, s := range f.Samples {
			if f.Type == metrics.KindHistogram {
				if s.Name == name+"_count" {
					total += s.Value
				}
				continue
			}
			total += s.Value
		}
		return total
	}
	if count("coemu_engine_committed_cycles_total") < 4000+4500 {
		t.Errorf("committed cycles not aggregated:\n%s", doc)
	}
	for _, name := range []string{
		"coemu_job_seconds", "coemu_job_queue_seconds", "coemu_sweep_point_seconds",
		"coemu_engine_transitions_total", "coemu_channel_words_total",
	} {
		if count(name) <= 0 {
			t.Errorf("family %s has no observations:\n%s", name, doc)
		}
	}
}

func TestFaultsInjectedCounter(t *testing.T) {
	svc := newTestService(t, Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 5, Service: &faultplan.ServiceFault{WorkerPanic: 1}},
	})
	job, err := svc.Submit(testSpec(t, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Wait err = %v, want ErrWorkerPanic", err)
	}
	c := svc.Counters()
	if c.FaultsInjected != 1 || c.WorkerPanics != 1 {
		t.Fatalf("faults_injected=%d worker_panics=%d, want 1 and 1", c.FaultsInjected, c.WorkerPanics)
	}
}
