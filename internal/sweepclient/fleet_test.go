package sweepclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// fleetStore is the stub daemons' shared content-addressed store:
// canonical hash → report bytes, with engine-run accounting so tests
// can prove a store-held point never re-ran.
type fleetStore struct {
	mu         sync.Mutex
	data       map[string][]byte
	engineRuns map[string]int
}

func newFleetStore() *fleetStore {
	return &fleetStore{data: make(map[string][]byte), engineRuns: make(map[string]int)}
}

func (fs *fleetStore) get(hash string) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.data[hash]
	return data, ok
}

// run serves hash from the store, or "runs the engine" (records the
// run and stores the report) on a miss — the real daemon's dedup.
func (fs *fleetStore) run(hash string, report []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.data[hash]; ok {
		return
	}
	fs.engineRuns[hash]++
	fs.data[hash] = report
}

func (fs *fleetStore) totalRuns() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, c := range fs.engineRuns {
		n += c
	}
	return n
}

// reportFor fabricates the deterministic canonical report bytes for a
// point name, so every stub daemon produces identical results.
func reportFor(name string) []byte {
	return []byte(fmt.Sprintf(`{"point":%q,"perf_cycles_per_sec":%d}`, name, 100+len(name)))
}

// stubDaemon speaks just enough of coemud's wire protocol for the
// fleet: /v1/healthz, /v1/sweep, /v1/results/{hash}. Setting down
// makes it drop every connection (a dead process). The fault fields
// below are set before the fleet starts or between sweeps.
type stubDaemon struct {
	t     *testing.T
	store *fleetStore
	down  atomic.Bool

	// healthz, when non-zero, is the status /v1/healthz answers.
	healthz int
	// One-shot sweep faults, each consumed by the next sweep POST:
	// status answers it with that HTTP status (and a Retry-After header
	// when retryAfter is set) instead of a stream; cutAfter cuts the
	// stream after that many lines and stays up; dieAfter cuts it and
	// goes down.
	status     int
	retryAfter string
	cutAfter   int
	dieAfter   int
	// pointErr, when set, fails a point with the message it returns
	// (empty serves the point); post counts sweep POSTs from 1.
	pointErr func(post int, name string) string

	mu      sync.Mutex
	batches [][]string // point names of every sweep POST, in order
	stream  []byte     // bytes the last complete sweep stream carried
	srv     *httptest.Server
}

func startStubDaemon(t *testing.T, fs *fleetStore) *stubDaemon {
	t.Helper()
	d := &stubDaemon{t: t, store: fs}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		if d.healthz != 0 {
			w.WriteHeader(d.healthz)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"queue":0,"queue_capacity":8,"saturated":false,"store":{"entries":0,"bytes":0,"quarantined":0}}`)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		if data, ok := fs.get(r.PathValue("hash")); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			return
		}
		http.Error(w, `{"error":"no completed result for that hash"}`, http.StatusNotFound)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if d.down.Load() {
			d.drop(w)
			return
		}
		var batch struct {
			Specs []json.RawMessage `json:"specs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			d.t.Errorf("stub daemon: bad batch: %v", err)
			return
		}
		specs := make([]*spec.Spec, len(batch.Specs))
		names := make([]string, len(batch.Specs))
		for i, raw := range batch.Specs {
			sp, err := spec.Parse(raw)
			if err != nil {
				d.t.Errorf("stub daemon: bad spec in batch: %v", err)
				return
			}
			specs[i], names[i] = sp, sp.Name
		}
		d.mu.Lock()
		d.batches = append(d.batches, names)
		post := len(d.batches)
		status, retryAfter, cut, die := d.status, d.retryAfter, d.cutAfter, d.dieAfter > 0
		if die {
			cut = d.dieAfter
		}
		d.status, d.retryAfter, d.cutAfter, d.dieAfter = 0, "", 0, 0
		d.mu.Unlock()
		if status != 0 {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, fmt.Sprintf(`{"error":%q}`, http.StatusText(status)), status)
			return
		}

		var stream bytes.Buffer
		enc := json.NewEncoder(io.MultiWriter(w, &stream))
		agg := service.NewSweepAggregator(len(specs))
		for i, sp := range specs {
			hash, err := sp.CanonicalHash()
			if err != nil {
				d.t.Errorf("stub daemon: hash: %v", err)
				return
			}
			pr := service.PointResult{Index: i, Name: sp.Name, Hash: hash}
			var msg string
			if d.pointErr != nil {
				msg = d.pointErr(post, sp.Name)
			}
			if msg != "" {
				pr.Err = errors.New(msg)
			} else {
				rep := reportFor(sp.Name)
				fs.run(hash, rep)
				pr.Result = &service.Result{JSON: rep}
			}
			if err := enc.Encode(agg.Add(pr)); err != nil {
				return
			}
			if cut > 0 && i+1 == cut {
				// Cut mid-stream: flush what was served and sever the
				// connection; a dying daemon answers nothing ever again.
				if fl, ok := w.(http.Flusher); ok {
					fl.Flush()
				}
				if die {
					d.down.Store(true)
				}
				d.drop(w)
				return
			}
		}
		_ = enc.Encode(agg.Line())
		d.mu.Lock()
		d.stream = stream.Bytes()
		d.mu.Unlock()
	})
	d.srv = httptest.NewServer(mux)
	t.Cleanup(d.srv.Close)
	return d
}

// drop severs the client's connection without an HTTP response, the
// way a SIGKILLed daemon would.
func (d *stubDaemon) drop(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (d *stubDaemon) sweepPosts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.batches)
}

// batch returns the point names of the i-th sweep POST (from 0).
func (d *stubDaemon) batch(i int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i >= len(d.batches) {
		return nil
	}
	return d.batches[i]
}

func (d *stubDaemon) batchPoints() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, b := range d.batches {
		n += len(b)
	}
	return n
}

// fastFleetOptions are the options every test fleet starts from:
// millisecond backoff, a 10 ms probe interval, and eviction on the
// first failure.
func fastFleetOptions(t *testing.T, urls ...string) FleetOptions {
	return FleetOptions{
		URLs:          urls,
		Retries:       8,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
		Logf:          t.Logf,
	}
}

// startFleet builds a fleet that is closed when the test ends.
func startFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func newTestFleet(t *testing.T, journal *Journal, urls ...string) *Fleet {
	t.Helper()
	opts := fastFleetOptions(t, urls...)
	opts.Journal = journal
	return startFleet(t, opts)
}

// requireClean asserts every line settled cleanly, in point order.
func requireClean(t *testing.T, points []*spec.Spec, lines []service.SweepLine) {
	t.Helper()
	if len(lines) != len(points) {
		t.Fatalf("got %d lines for %d points", len(lines), len(points))
	}
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("point %d (%s) failed: %s", i, points[i].Name, ln.Error)
		}
		if ln.Index != i || ln.Name != points[i].Name {
			t.Fatalf("line %d is (index %d, %s), want (index %d, %s)", i, ln.Index, ln.Name, i, points[i].Name)
		}
		if string(ln.Report) != string(reportFor(points[i].Name)) {
			t.Fatalf("point %d report bytes differ from the canonical report", i)
		}
	}
}

func TestFleetShardsAcrossDaemons(t *testing.T) {
	fs := newFleetStore()
	daemons := []*stubDaemon{startStubDaemon(t, fs), startStubDaemon(t, fs), startStubDaemon(t, fs)}
	urls := []string{daemons[0].srv.URL, daemons[1].srv.URL, daemons[2].srv.URL}
	points := testPoints(t, 30)

	fleet := newTestFleet(t, nil, urls...)
	lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg != nil {
		t.Fatal("multi-shard sweep relayed a single daemon's aggregate")
	}

	// Every daemon carries a shard, no daemon exceeds the bounded-load
	// cap, and every point was submitted exactly once in total.
	cap := 13 // ceil(1.25 * 30 / 3)
	total := 0
	for i, d := range daemons {
		n := d.batchPoints()
		if n == 0 {
			t.Fatalf("daemon %d received no points; sweep was not sharded", i)
		}
		if n > cap {
			t.Fatalf("daemon %d received %d points, above the bounded-load cap %d", i, n, cap)
		}
		total += n
	}
	if total != len(points) {
		t.Fatalf("daemons received %d submissions for %d points; sharding duplicated or dropped work", total, len(points))
	}
	if runs := fs.totalRuns(); runs != len(points) {
		t.Fatalf("%d engine runs for %d points", runs, len(points))
	}
}

func TestFleetSingleDaemonRelaysAggregateVerbatim(t *testing.T) {
	fs := newFleetStore()
	d := startStubDaemon(t, fs)
	points := testPoints(t, 4)

	fleet := newTestFleet(t, nil, d.srv.URL)
	lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg == nil {
		t.Fatal("single clean shard must relay the daemon's aggregate verbatim")
	}
	var aggLine service.SweepAggregateLine
	if err := json.Unmarshal(rawAgg, &aggLine); err != nil {
		t.Fatalf("relayed aggregate is not an aggregate line: %v", err)
	}
	if aggLine.Aggregate.Points != 4 || aggLine.Aggregate.OK != 4 {
		t.Fatalf("relayed aggregate counts %+v, want 4/4", aggLine.Aggregate)
	}
}

func TestFleetConcurrentShardDeathNoDoubleCount(t *testing.T) {
	fs := newFleetStore()
	daemons := []*stubDaemon{startStubDaemon(t, fs), startStubDaemon(t, fs), startStubDaemon(t, fs)}
	urls := []string{daemons[0].srv.URL, daemons[1].srv.URL, daemons[2].srv.URL}
	points := testPoints(t, 30)

	// Two of the three daemons die mid-stream, concurrently, each after
	// serving one line of its shard. Their unfinished points must
	// rebalance onto the survivor; their served points must not re-run.
	daemons[0].dieAfter = 1
	daemons[1].dieAfter = 1

	fleet := newTestFleet(t, nil, urls...)
	lines, _, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)

	// No point is double-counted in the aggregate: exactly one row per
	// point, each index once, totals exact.
	agg := buildAggregate(lines)
	if agg.Aggregate.Points != 30 || agg.Aggregate.OK != 30 || agg.Aggregate.Errors != 0 {
		t.Fatalf("aggregate counts %+v, want 30 points / 30 ok / 0 errors", agg.Aggregate)
	}
	seen := make(map[int]bool)
	for _, row := range agg.Aggregate.Table {
		if seen[row.Index] {
			t.Fatalf("point %d double-counted in the aggregate", row.Index)
		}
		seen[row.Index] = true
	}
	if len(seen) != 30 {
		t.Fatalf("aggregate table has %d rows, want 30", len(seen))
	}

	// No engine run was duplicated anywhere in the fleet: a point either
	// ran on its original shard before the cut (and survivors answered
	// from the shared store) or ran exactly once on a survivor.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for hash, runs := range fs.engineRuns {
		if runs != 1 {
			t.Fatalf("hash %s ran the engine %d times, want exactly 1", hash[:8], runs)
		}
	}
	if len(fs.engineRuns) != 30 {
		t.Fatalf("%d hashes ran for 30 points", len(fs.engineRuns))
	}
}

func TestFleetEvictionAndReadmission(t *testing.T) {
	fs := newFleetStore()
	d0, d1 := startStubDaemon(t, fs), startStubDaemon(t, fs)
	all := testPoints(t, 40)
	first, second := all[:20], all[20:]

	// d0 is dead before the fleet starts: the synchronous initial probe
	// round evicts it and the whole first sweep lands on d1.
	d0.down.Store(true)
	fleet := newTestFleet(t, nil, d0.srv.URL, d1.srv.URL)
	lines, _, err := fleet.RunPoints(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, first, lines)
	if d0.sweepPosts() != 0 {
		t.Fatal("evicted daemon still received sweep submissions")
	}

	// d0 recovers; the prober must re-admit it without intervention.
	d0.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := fleet.Health()
		if h[0].Healthy && h[1].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered daemon not re-admitted; health %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh sweep shards across both again...
	lines, _, err = fleet.RunPoints(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, second, lines)
	if d0.sweepPosts() == 0 {
		t.Fatal("re-admitted daemon received no share of the next sweep")
	}

	// ...and re-running the first batch is pure store traffic: the
	// re-admitted daemon serves store-held hashes without engine runs.
	runsBefore := fs.totalRuns()
	lines, _, err = fleet.RunPoints(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, first, lines)
	if runs := fs.totalRuns(); runs != runsBefore {
		t.Fatalf("re-running store-held points cost %d extra engine runs", runs-runsBefore)
	}
}

func TestFleetJournalResumeSkipsSubmission(t *testing.T) {
	fs := newFleetStore()
	d := startStubDaemon(t, fs)
	points := testPoints(t, 6)
	path := filepath.Join(t.TempDir(), "resume.ndjson")

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fleet1 := newTestFleet(t, j1, d.srv.URL)
	firstLines, _, err := fleet1.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, firstLines)
	fleet1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if j1.Len() != len(points) {
		t.Fatalf("journal holds %d hashes after a %d-point sweep", j1.Len(), len(points))
	}

	// A "restarted client": new fleet, same journal. The whole sweep
	// must restore from the store — zero sweep submissions, zero new
	// engine runs, byte-identical lines.
	postsBefore, runsBefore := d.sweepPosts(), fs.totalRuns()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fleet2 := newTestFleet(t, j2, d.srv.URL)
	resumedLines, rawAgg, err := fleet2.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, resumedLines)
	if d.sweepPosts() != postsBefore {
		t.Fatalf("resume re-submitted a sweep (%d posts, had %d)", d.sweepPosts(), postsBefore)
	}
	if fs.totalRuns() != runsBefore {
		t.Fatal("resume caused engine runs for journaled points")
	}
	if rawAgg != nil {
		t.Fatal("journal-restored sweep relayed an aggregate it never received")
	}
	for i := range firstLines {
		a, _ := json.Marshal(firstLines[i])
		b, _ := json.Marshal(resumedLines[i])
		if string(a) != string(b) {
			t.Fatalf("resumed line %d differs:\n%s\n%s", i, a, b)
		}
	}
}

func TestProberEvictionLogNamesHealthzStatus(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	d.healthz = http.StatusInternalServerError
	var (
		mu   sync.Mutex
		logs []string
	)
	opts := fastFleetOptions(t, d.srv.URL)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	// NewFleet's synchronous first probe round evicts the member.
	if startFleet(t, opts).Health()[0].Healthy {
		t.Fatal("a member answering 500 on /v1/healthz was not evicted")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "evicted") {
			if !strings.Contains(l, "500") || strings.Contains(l, "<nil>") {
				t.Fatalf("eviction log %q does not name the healthz status", l)
			}
			return
		}
	}
	t.Fatalf("no eviction logged; log: %q", logs)
}
