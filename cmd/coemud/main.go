// Command coemud serves co-emulation runs over HTTP: clients submit
// declarative JSON run specs (see internal/spec) and get back the full
// modeled report. A bounded worker pool executes runs in parallel,
// duplicate specs coalesce onto one run, and an LRU cache keyed by the
// canonical spec hash answers repeats with bit-identical reports.
// With -store, completed results are also written through to a
// persistent content-addressed store, so a restarted daemon (or a
// sibling process sharing the directory) serves previously computed
// runs with zero engine runs. In-flight runs cancel within one domain
// cycle when the submitting client aborts or the server shuts down.
//
//	coemud -addr :8080 -j 8 -cache 256 -store /var/lib/coemud
//
// API (JSON in, JSON out). Work runs only on behalf of a waiting
// request: POST /v1/run and POST /v1/sweep are the two ways to run it,
// and a run lives exactly as long as some client waits on it.
//
//	POST /v1/run              run a spec synchronously; the report is
//	                          the response body and a Server-Timing
//	                          header gives the answering job's queue,
//	                          engine, store and encode milliseconds.
//	                          Aborting the request cancels the run
//	                          (unless another client shares it).
//	POST /v1/sweep            a sweep document (spec + "sweep" grid
//	                          block) or {"specs": [spec, ...]}: fan the
//	                          points out over the pool, streaming one
//	                          NDJSON result line per point in point
//	                          order plus a final aggregate line.
//	                          Aborting the request cancels the points
//	                          no other client shares.
//	GET  /v1/stats            worker/cache/store/sweep counters.
//	GET  /v1/results/{hash}   a completed run's canonical report bytes
//	                          by canonical spec hash — cache/store only,
//	                          never schedules work; 404 when unknown.
//	                          HEAD probes presence. Fleet sweep clients
//	                          use it to splice store-held points instead
//	                          of re-running them.
//	GET  /v1/healthz          readiness: {ok, queue, queue_capacity,
//	                          saturated, store?}. queue and
//	                          queue_capacity sum the run and sweep-point
//	                          classes; ok goes false (HTTP 503) while
//	                          either class is full; store carries
//	                          entry/byte/quarantine occupancy so fleet
//	                          probers can prefer lightly-loaded shards.
//
// Runs and sweep points queue in separate classes, each bounded by
// -queue, and the workers alternate between them, so a run never waits
// behind a whole grid. Overload is shed rather than queued without
// bound: /v1/run fails with 503 and a Retry-After hint when the run
// class is full, and /v1/sweep rejects new sweeps while either class
// is full — resilient clients (cmd/sweep -remote,
// internal/sweepclient) back off and fail over.
//
// With -fault-plan plan.json, a seeded fault-injection plan (see
// internal/faultplan) is armed daemon-wide for chaos testing: worker
// panics and slow runs at the service layer, write errors and torn
// writes at the store, packet duplication/corruption/delay on every
// job's channel. All injection is off without the flag.
//
// With -domain-serve addr, the daemon runs in a different mode
// entirely: instead of the HTTP service it hosts the accelerator
// domain for cross-process co-emulation (see internal/remote). A
// `coemu -remote-domain addr -spec spec.json` client dials in, ships
// its spec in the connect handshake, and both processes run mirrored
// lockstep engines over the TCP channel; the daemon is spec-agnostic
// and verifies the client's canonical spec hash before running.
//
// Observability: GET /metrics serves Prometheus text exposition
// (disable with -metrics=false) — job/queue/store latency histograms
// and engine-protocol counters from internal/service plus mirrored
// service counters, so /metrics and /v1/stats always agree. Requests
// are logged structurally (slog, -log-level) with an X-Request-Id
// echoed to the client. -pprof mounts net/http/pprof at /debug/pprof/
// for live profiling; it is off by default.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"coemu/internal/channel/tcpchan"
	"coemu/internal/faultplan"
	"coemu/internal/metrics"
	"coemu/internal/remote"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("j", runtime.NumCPU(), "worker pool width (parallel engine runs)")
	cache := flag.Int("cache", 128, "result cache capacity in reports (negative disables)")
	queue := flag.Int("queue", 256, "pending job bound of each queue class (runs, sweep points)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body bytes")
	sweepMax := flag.Int("sweep-max", spec.MaxSweepPoints, "maximum points one /v1/sweep request may expand to")
	storeDir := flag.String("store", "", "persistent result store directory (empty disables)")
	storeMax := flag.Int("store-max", store.DefaultMaxEntries, "persistent store entry bound (negative = unbounded)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store disk-byte bound (0 = unbounded)")
	storeMaxAge := flag.Duration("store-max-age", 0, "persistent store entry age bound; entries unused longer are deleted (0 = unbounded)")
	faultPlanPath := flag.String("fault-plan", "", "seeded fault-injection plan JSON (see internal/faultplan); injection off when empty")
	metricsOn := flag.Bool("metrics", true, "serve Prometheus metrics at /metrics")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiles at /debug/pprof/")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	domainServe := flag.String("domain-serve", "", "host the accelerator domain for cross-process co-emulation on this TCP address instead of the HTTP service")
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *domainServe != "" {
		runDomainServe(*domainServe, logger)
		return
	}

	var plan *faultplan.Plan
	if *faultPlanPath != "" {
		p, err := faultplan.Load(*faultPlanPath)
		if err != nil {
			log.Fatal(err)
		}
		plan = p
		logger.Info("fault plan armed", "path", *faultPlanPath, "seed", plan.Seed)
	}

	logf := func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) }
	opts := service.Options{Workers: *jobs, CacheSize: *cache, QueueDepth: *queue, Logf: logf, Faults: plan}
	var reg *metrics.Registry
	if *metricsOn {
		reg = metrics.NewRegistry()
		opts.Metrics = service.NewMetrics(reg)
	}
	if *storeDir != "" {
		storeOpts := store.Options{MaxEntries: *storeMax, MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge}
		if plan != nil {
			storeOpts.Faults, storeOpts.FaultSeed = plan.Store, plan.Seed
		}
		disk, err := store.Open(*storeDir, storeOpts)
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("result store open", "dir", disk.Dir(), "entries", disk.Len(), "bytes", disk.Bytes())
		opts.Store = disk
	}
	svc := service.New(opts)
	mux := newMux(svc, *maxBody, *sweepMax)
	srv := &http.Server{
		Addr:    *addr,
		Handler: observe(mux, svc, observeConfig{Registry: reg, Pprof: *pprofOn, Logger: logger}),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("coemud listening", "addr", *addr, "workers", *jobs, "cache", *cache,
		"metrics", *metricsOn, "pprof", *pprofOn)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errc:
		log.Fatal(err)
	}

	// Cancel the in-flight runs concurrently with draining connections:
	// handlers blocked in job.Wait unblock only once their jobs cancel,
	// so closing the service must not wait for Shutdown to return. The
	// engine's domain-cycle cancellation keeps the whole drain prompt.
	svcClosed := make(chan struct{})
	go func() {
		svc.Close()
		close(svcClosed)
	}()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	<-svcClosed
}

// runDomainServe hosts the accelerator domain for cross-process
// co-emulation: accept a mirrored-lockstep session, run the
// accelerator-authoritative engine on the spec shipped in the
// handshake, cross-check the final report with the client, repeat. A
// SIGINT/SIGTERM closes the listener and returns.
func runDomainServe(addr string, logger *slog.Logger) {
	l, err := tcpchan.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("accelerator domain listening", "addr", l.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = remote.Serve(ctx, l, remote.ServeOptions{
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
		OnSession: func(info remote.SessionInfo) {
			st := info.Transport
			logger.Info("session transport",
				"hash", shortHash(info.Hash),
				"frames_sent", st.Sent, "frames_received", st.Received,
				"retransmits", st.Retransmits, "resyncs", st.Resyncs,
				"reconnects", st.Reconnects, "wire_faults", st.WireFaults,
				"rtt_mean", st.RTTMean, "rtt_p99", st.RTTP99, "rtt_samples", st.RTTSamples)
		},
	})
	if err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	logger.Info("domain server stopped")
}

// shortHash abbreviates a canonical spec hash for log lines.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// newMux builds the HTTP API around a job service. sweepMax caps how
// many points one /v1/sweep request may expand to — the document's own
// max_points cannot raise it, so an untrusted request cannot blow the
// daemon up by declaring a huge grid.
func newMux(svc *service.Service, maxBody int64, sweepMax int) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		pending, capacity := svc.QueueDepth()
		saturated := svc.Saturated()
		status := http.StatusOK
		if saturated {
			w.Header().Set("Retry-After", retryAfter)
			status = http.StatusServiceUnavailable
		}
		body := map[string]any{
			"ok":             !saturated,
			"queue":          pending,
			"queue_capacity": capacity,
			"saturated":      saturated,
		}
		// Store occupancy rides along (absent without -store) so fleet
		// probers can prefer lightly-loaded shards; a client that only
		// checks for 200 simply ignores the field.
		if st, ok := svc.StoreStats(); ok {
			body["store"] = map[string]any{
				"entries":     st.Entries,
				"bytes":       st.Bytes,
				"quarantined": st.Quarantined,
			}
		}
		writeJSON(w, status, body)
	})

	// The fleet's incremental-resubmission probe: canonical report bytes
	// by canonical spec hash, from the completed-result layers only
	// (memory cache, then store) — never schedules an engine run. The
	// body is the exact canonical compact JSON, so a fleet client can
	// splice it verbatim into a sweep line and preserve bit-identity.
	// The GET pattern also serves HEAD (presence probe, no body).
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		res, ok := svc.Lookup(r.PathValue("hash"))
		if !ok {
			writeError(w, http.StatusNotFound, errNoResult)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(res.JSON)))
		w.WriteHeader(http.StatusOK)
		if r.Method == http.MethodHead {
			return
		}
		if _, err := w.Write(res.JSON); err != nil {
			log.Printf("write response: %v", err)
		}
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Counters())
	})

	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		sp, ok := readSpec(w, r, maxBody)
		if !ok {
			return
		}
		// If this client aborts and nobody else shares the job, the run
		// is canceled.
		job, err := svc.Submit(sp)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		res, err := job.Wait(r.Context())
		if err != nil {
			writeRunError(w, err)
			return
		}
		writeReport(w, res, job.Info())
	})

	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		// Shed new sweeps while either queue class is full: one sweep
		// fans out many jobs, and rejecting it up front with a
		// Retry-After hint lets a resilient client back off or fail
		// over instead of stalling mid-stream on a full queue.
		if svc.Saturated() {
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusServiceUnavailable, service.ErrQueueFull)
			return
		}
		body, ok := readRaw(w, r, maxBody)
		if !ok {
			return
		}
		points, err := sweepPoints(body, sweepMax)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		sw, err := svc.StartSweepPoints(r.Context(), points)
		if err != nil {
			writeSubmitError(w, err)
			return
		}

		// NDJSON: one line per point in point order as each settles,
		// then one aggregate line. Flush per line so a slow sweep
		// streams progress.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		agg := service.NewSweepAggregator(sw.Total())
		for pr := range sw.Results() {
			if err := enc.Encode(agg.Add(pr)); err != nil {
				return // client went away; sweep ctx cancels via r.Context
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err := enc.Encode(agg.Line()); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	})

	return mux
}

// sweepPoints turns a /v1/sweep request body into expanded spec
// points: either an explicit {"specs": [...]} list or a sweep document
// (a spec with an optional "sweep" grid block). sweepMax bounds the
// point count either way.
func sweepPoints(body []byte, sweepMax int) ([]*spec.Spec, error) {
	var batch struct {
		Specs []json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(body, &batch); err == nil && len(batch.Specs) > 0 {
		if len(batch.Specs) > sweepMax {
			return nil, fmt.Errorf("sweep: %d specs over the server bound of %d", len(batch.Specs), sweepMax)
		}
		points := make([]*spec.Spec, len(batch.Specs))
		for i, raw := range batch.Specs {
			sp, err := spec.Parse(raw)
			if err != nil {
				return nil, fmt.Errorf("specs[%d]: %w", i, err)
			}
			points[i] = sp
		}
		return points, nil
	}
	ss, err := spec.ParseSweep(body)
	if err != nil {
		return nil, err
	}
	if n := ss.Points(); n > sweepMax {
		return nil, fmt.Errorf("sweep: %d points over the server bound of %d", n, sweepMax)
	}
	points, err := ss.Expand()
	if err != nil {
		return nil, err
	}
	return points, nil
}

// writeReport serves a run result: the stored canonical bytes,
// re-indented. Using the canonical bytes (rather than re-projecting a
// report) keeps responses byte-identical across cache hits, store hits
// and fresh runs. info is the answering job's, for Server-Timing.
func writeReport(w http.ResponseWriter, res *service.Result, info service.Info) {
	start := time.Now()
	var buf bytes.Buffer
	if err := json.Indent(&buf, res.JSON, "", "  "); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	buf.WriteByte('\n')
	w.Header().Set("Server-Timing", serverTiming(info, time.Since(start)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("write response: %v", err)
	}
}

// serverTiming renders a /v1/run Server-Timing header in
// milliseconds: the answering job's queue wait, engine run and store
// write-through ("cache-hit" or "store-hit" instead when no engine
// ran), then the response encode.
func serverTiming(info service.Info, encode time.Duration) string {
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	var head string
	switch {
	case info.FromStore:
		head = "store-hit"
	case info.Cached:
		head = "cache-hit"
	default:
		head = "queue;dur=" + ms(info.Queue) + ", engine;dur=" + ms(info.Engine) +
			", store;dur=" + ms(info.StoreWrite)
	}
	return head + ", encode;dur=" + ms(encode)
}

// readRaw reads a bounded request body, reporting HTTP errors itself.
func readRaw(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	if int64(len(body)) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body over %d bytes", maxBody))
		return nil, false
	}
	return body, true
}

// readSpec decodes a spec request body, reporting HTTP errors itself.
func readSpec(w http.ResponseWriter, r *http.Request, maxBody int64) (*spec.Spec, bool) {
	body, ok := readRaw(w, r, maxBody)
	if !ok {
		return nil, false
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return sp, true
}

// retryAfter is the Retry-After hint (in seconds) sent with every
// load-shedding 503: long enough for a queue slot to free, short
// enough that failover clients reprobe promptly.
const retryAfter = "1"

// errNoResult is the 404 body for /v1/results/{hash} misses.
var errNoResult = errors.New("no completed result for that hash")

// writeSubmitError maps Submit failures to HTTP statuses. Queue-full
// rejections carry a Retry-After hint so well-behaved clients back off
// instead of hammering a saturated daemon.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, service.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// writeRunError maps Wait failures to HTTP statuses.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client went away, or shutdown canceled the job under it.
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
