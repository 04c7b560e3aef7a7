package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coemu/internal/faultplan"
	"coemu/internal/metrics"
	"coemu/internal/service"
)

// newObservedServer builds a daemon with the full observability stack:
// metrics registry wired into the service, request logging, and the
// caller's observe configuration.
func newObservedServer(t *testing.T, opts service.Options, cfg observeConfig) *httptest.Server {
	t.Helper()
	if cfg.Registry != nil {
		opts.Metrics = service.NewMetrics(cfg.Registry)
	}
	svc := service.New(opts)
	mux := newMux(svc, 1<<20, 100)
	ts := httptest.NewServer(observe(mux, svc, cfg))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// scrape fetches and parses /metrics, returning families by name.
func scrape(t *testing.T, base string) map[string]metrics.ParsedFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	fams, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := make(map[string]metrics.ParsedFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// sampleValue returns the single unlabeled sample of a family.
func sampleValue(t *testing.T, fams map[string]metrics.ParsedFamily, name string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("family %s missing from exposition", name)
	}
	for _, s := range f.Samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("family %s has no unlabeled sample", name)
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	ts := newObservedServer(t, service.Options{Workers: 2}, observeConfig{Registry: reg})

	if code, _ := post(t, ts.URL+"/v1/run", specJSON(3000)); code != http.StatusOK {
		t.Fatalf("run = %d", code)
	}
	fams := scrape(t, ts.URL)
	runs := sampleValue(t, fams, "coemu_engine_runs_total")
	if runs != 1 {
		t.Fatalf("coemu_engine_runs_total = %v after one run, want 1", runs)
	}
	for _, name := range []string{
		"coemu_job_seconds", "coemu_job_queue_seconds",
		"coemu_engine_committed_cycles_total", "coemu_engine_transitions_total",
		"coemu_cache_hits_total", "coemu_queue_capacity",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	if got := sampleValue(t, fams, "coemu_engine_committed_cycles_total"); got < 3000 {
		t.Errorf("coemu_engine_committed_cycles_total = %v, want >= 3000", got)
	}

	// A second distinct run moves the mirrored counters; a duplicate
	// moves the cache-hit counter. Counters only go forward.
	if code, _ := post(t, ts.URL+"/v1/run", specJSON(3500)); code != http.StatusOK {
		t.Fatal("second run failed")
	}
	if code, _ := post(t, ts.URL+"/v1/run", specJSON(3000)); code != http.StatusOK {
		t.Fatal("duplicate run failed")
	}
	fams2 := scrape(t, ts.URL)
	if got := sampleValue(t, fams2, "coemu_engine_runs_total"); got != 2 {
		t.Errorf("coemu_engine_runs_total = %v after two distinct runs, want 2", got)
	}
	if got := sampleValue(t, fams2, "coemu_cache_hits_total"); got < 1 {
		t.Errorf("coemu_cache_hits_total = %v after a duplicate, want >= 1", got)
	}
	if got := sampleValue(t, fams2, "coemu_engine_committed_cycles_total"); got < 6500 {
		t.Errorf("committed cycles did not accumulate: %v", got)
	}
}

func TestMetricsChaosCountersMove(t *testing.T) {
	reg := metrics.NewRegistry()
	ts := newObservedServer(t, service.Options{
		Workers: 1,
		Faults:  &faultplan.Plan{Seed: 5, Service: &faultplan.ServiceFault{WorkerPanic: 1}},
	}, observeConfig{Registry: reg})

	if code, _ := post(t, ts.URL+"/v1/run", specJSON(1500)); code != http.StatusInternalServerError {
		t.Fatalf("fault-doomed run = %d, want 500", code)
	}
	fams := scrape(t, ts.URL)
	if got := sampleValue(t, fams, "coemu_worker_panics_total"); got != 1 {
		t.Errorf("coemu_worker_panics_total = %v, want 1", got)
	}
	if got := sampleValue(t, fams, "coemu_faults_injected_total"); got < 1 {
		t.Errorf("coemu_faults_injected_total = %v, want >= 1", got)
	}
}

func TestMetricsDisabled(t *testing.T) {
	ts := newObservedServer(t, service.Options{Workers: 1}, observeConfig{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without a registry = %d, want 404", resp.StatusCode)
	}
}

func TestPprofGating(t *testing.T) {
	off := newObservedServer(t, service.Options{Workers: 1}, observeConfig{})
	if code, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof off = %d, want 404", code)
	}
	on := newObservedServer(t, service.Options{Workers: 1}, observeConfig{Pprof: true})
	if code, _ := get(t, on.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof on = %d, want 200", code)
	}
}

func TestRequestIDHeader(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := newObservedServer(t, service.Options{Workers: 1}, observeConfig{Logger: logger})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(id, "req-") {
		t.Fatalf("X-Request-Id = %q, want req-*", id)
	}
}

func TestLogLevelParsing(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := parseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLogLevel("loud"); err == nil {
		t.Error("parseLogLevel accepted an unknown level")
	}
}
