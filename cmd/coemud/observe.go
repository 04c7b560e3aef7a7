package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"coemu/internal/metrics"
	"coemu/internal/service"
)

// observeConfig selects the daemon's observability surfaces.
type observeConfig struct {
	// Registry, when non-nil, is exposed at GET /metrics and mirrors the
	// service counters on every scrape.
	Registry *metrics.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Logger, when non-nil, logs one structured line per request with a
	// daemon-unique request ID (also echoed as X-Request-Id).
	Logger *slog.Logger
}

// observe mounts the observability endpoints on mux and wraps it in the
// request-logging middleware, returning the handler to serve.
func observe(mux *http.ServeMux, svc *service.Service, cfg observeConfig) http.Handler {
	if cfg.Registry != nil {
		mirrorCounters(cfg.Registry, svc)
		mux.Handle("GET /metrics", cfg.Registry.Handler())
	}
	if cfg.Pprof {
		// Mount explicitly instead of importing for the DefaultServeMux
		// side effect: the daemon's mux never serves handlers it did not
		// register, and profiling stays off without the flag.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.Logger == nil {
		return mux
	}
	return logRequests(cfg.Logger, mux)
}

// mirrorCounters republishes the service-wide lifecycle counters
// (service.Counters, the /v1/stats payload) into reg as coemu_-prefixed
// counters and gauges, refreshed by a collect hook on every scrape —
// so /metrics and /v1/stats can never disagree about, say, how many
// engine runs have happened.
func mirrorCounters(reg *metrics.Registry, svc *service.Service) {
	type mirror struct {
		c   *metrics.Counter
		get func(service.Counters) int64
	}
	mirrors := []mirror{
		{reg.NewCounter("coemu_cache_hits_total",
			"Result-cache hits (duplicate submissions answered from memory)."),
			func(c service.Counters) int64 { return c.CacheHits }},
		{reg.NewCounter("coemu_cache_misses_total",
			"Result-cache misses."),
			func(c service.Counters) int64 { return c.CacheMisses }},
		{reg.NewCounter("coemu_engine_runs_total",
			"Jobs that actually executed an engine run."),
			func(c service.Counters) int64 { return c.EngineRuns }},
		{reg.NewCounter("coemu_sweeps_total",
			"Sweeps started."),
			func(c service.Counters) int64 { return c.Sweeps }},
		{reg.NewCounter("coemu_sweep_points_total",
			"Points the started sweeps expanded to."),
			func(c service.Counters) int64 { return c.SweepPoints }},
		{reg.NewCounter("coemu_store_hits_total",
			"Persistent-store probe hits."),
			func(c service.Counters) int64 { return c.StoreHits }},
		{reg.NewCounter("coemu_store_misses_total",
			"Persistent-store probe misses."),
			func(c service.Counters) int64 { return c.StoreMisses }},
		{reg.NewCounter("coemu_store_puts_total",
			"Results written through to the persistent store."),
			func(c service.Counters) int64 { return c.StorePuts }},
		{reg.NewCounter("coemu_store_evictions_total",
			"Persistent-store entries evicted by the store bounds."),
			func(c service.Counters) int64 { return c.StoreEvictions }},
		{reg.NewCounter("coemu_store_quarantined_total",
			"Store entries quarantined after failing content verification."),
			func(c service.Counters) int64 { return c.StoreQuarantined }},
		{reg.NewCounter("coemu_worker_panics_total",
			"Engine runs that panicked (organic or injected) and were recovered."),
			func(c service.Counters) int64 { return c.WorkerPanics }},
		{reg.NewCounter("coemu_job_timeouts_total",
			"Jobs failed on their run.timeout deadline."),
			func(c service.Counters) int64 { return c.JobTimeouts }},
		{reg.NewCounter("coemu_faults_injected_total",
			"Service-layer faults actually fired by the armed fault plan."),
			func(c service.Counters) int64 { return c.FaultsInjected }},
	}
	cacheEntries := reg.NewGauge("coemu_cache_entries",
		"Reports currently held by the in-memory result cache.")
	storeEntries := reg.NewGauge("coemu_store_entries",
		"Entries currently in the persistent store.")
	queuePending := reg.NewGauge("coemu_queue_pending",
		"Jobs waiting in the worker queue, runs and sweep points summed.")
	queueCapacity := reg.NewGauge("coemu_queue_capacity",
		"Worker-queue capacity, the run and sweep-point classes summed.")

	reg.OnCollect(func() {
		c := svc.Counters()
		for _, m := range mirrors {
			m.c.Set(m.get(c))
		}
		cacheEntries.Set(float64(c.CacheSize))
		storeEntries.Set(float64(c.StoreEntries))
		pending, capacity := svc.QueueDepth()
		queuePending.Set(float64(pending))
		queueCapacity.Set(float64(capacity))
	})
}

// reqSeq numbers requests daemon-wide for the X-Request-Id header and
// the per-request log line.
var reqSeq atomic.Int64

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the streaming /v1/sweep
// handler still flushes NDJSON lines through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests wraps next so every request gets a daemon-unique ID
// (echoed as X-Request-Id) and one structured completion line.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", time.Since(start).Round(time.Microsecond).String(),
		)
	})
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(level string) (slog.Level, error) {
	switch strings.ToLower(level) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
}
