package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/store"
)

func specJSON(cycles int64) string {
	return fmt.Sprintf(`{
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": %d}
	}`, cycles)
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newTestServerOpts(t, service.Options{Workers: 2})
}

func newTestServerOpts(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(newMux(svc, 1<<20, 100))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// decodeNDJSON splits a /v1/sweep response into point lines and the
// final aggregate line.
func decodeNDJSON(t *testing.T, body []byte) ([]service.SweepLine, service.SweepAggregate) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("NDJSON stream has %d lines: %s", len(lines), body)
	}
	var agg service.SweepAggregateLine
	if err := json.Unmarshal(lines[len(lines)-1], &agg); err != nil {
		t.Fatalf("aggregate line: %v: %s", err, lines[len(lines)-1])
	}
	points := make([]service.SweepLine, 0, len(lines)-1)
	for _, raw := range lines[:len(lines)-1] {
		var pl service.SweepLine
		if err := json.Unmarshal(raw, &pl); err != nil {
			t.Fatalf("point line: %v: %s", err, raw)
		}
		points = append(points, pl)
	}
	return points, agg.Aggregate
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestRunEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/run", specJSON(2000))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var view service.ReportView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Cycles != 2000 || view.Mode != "ALS" {
		t.Fatalf("report %+v", view)
	}
	if view.Stats.Committed != 2000 {
		t.Fatalf("committed %d cycles", view.Stats.Committed)
	}
	if view.Perf <= 0 {
		t.Fatal("non-positive modeled performance")
	}
}

func TestDuplicateRunBitIdentical(t *testing.T) {
	ts := newTestServer(t)
	code1, body1 := post(t, ts.URL+"/v1/run", specJSON(3000))
	code2, body2 := post(t, ts.URL+"/v1/run", specJSON(3000))
	if code1 != 200 || code2 != 200 {
		t.Fatalf("statuses %d/%d", code1, code2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("duplicate spec served a byte-different report")
	}
	// The second run came from the cache.
	_, statsBody := get(t, ts.URL+"/v1/stats")
	var st map[string]any
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if hits := st["cache_hits"].(float64); hits < 1 {
		t.Fatalf("cache hits %v, want >= 1", hits)
	}
}

func TestClientAbortCancelsRun(t *testing.T) {
	// One worker: the 2^40-cycle run holds it until it is canceled.
	ts := newTestServerOpts(t, service.Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run",
		strings.NewReader(specJSON(int64(1)<<40)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the aborted request to fail")
	}
	// The abandoned run must stop promptly: a short run submitted after
	// the abort gets the single worker only once it has.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, "POST", ts.URL+"/v1/run",
		strings.NewReader(specJSON(2000)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("short run after the abort: %v (the abandoned run still holds the worker)", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("short run after the abort: %v (the abandoned run still holds the worker)", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short run status %d: %s", resp.StatusCode, body)
	}
	var view service.ReportView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Cycles != 2000 {
		t.Fatalf("short run committed %d cycles", view.Cycles)
	}
}

func TestSweepEndpointSpecList(t *testing.T) {
	ts := newTestServer(t)
	batch := fmt.Sprintf(`{"specs": [%s, %s, %s]}`,
		specJSON(1000), specJSON(1500), specJSON(1000))
	code, body := post(t, ts.URL+"/v1/sweep", batch)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, body)
	}
	points, agg := decodeNDJSON(t, body)
	if len(points) != 3 {
		t.Fatalf("%d point lines", len(points))
	}
	for i, pl := range points {
		if pl.Index != i || pl.Error != "" || pl.Report == nil {
			t.Fatalf("point %d: %+v", i, pl)
		}
	}
	var v0, v1 service.ReportView
	if err := json.Unmarshal(points[0].Report, &v0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(points[1].Report, &v1); err != nil {
		t.Fatal(err)
	}
	if v0.Cycles != 1000 || v1.Cycles != 1500 {
		t.Fatal("sweep results out of order")
	}
	if points[0].Hash != points[2].Hash {
		t.Fatal("identical specs hashed differently")
	}
	if !bytes.Equal(points[0].Report, points[2].Report) {
		t.Fatal("identical specs returned different report bytes")
	}
	if agg.Points != 3 || agg.OK != 3 || agg.Errors != 0 {
		t.Fatalf("aggregate %+v", agg)
	}
	if len(agg.Table) != 3 || agg.Table[1].Committed != 1500 {
		t.Fatalf("aggregate table %+v", agg.Table)
	}
}

func sweepDocJSON(cycles int64) string {
	return fmt.Sprintf(`{
	  "name": "grid",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": %d},
	  "sweep": {"axes": [
	    {"field": "run.accuracy", "values": [1, 0.9]},
	    {"field": "run.lob_depth", "values": [32, 64]}
	  ]}
	}`, cycles)
}

func TestSweepEndpointGrid(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/sweep", sweepDocJSON(1200))
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, body)
	}
	points, agg := decodeNDJSON(t, body)
	if len(points) != 4 {
		t.Fatalf("%d point lines, want 4", len(points))
	}
	hashes := map[string]bool{}
	for i, pl := range points {
		if pl.Error != "" || pl.Report == nil {
			t.Fatalf("point %d: %+v", i, pl)
		}
		if !strings.Contains(pl.Name, "run.accuracy=") {
			t.Fatalf("point %d name %q lacks axis labels", i, pl.Name)
		}
		hashes[pl.Hash] = true
	}
	if len(hashes) != 4 {
		t.Fatalf("%d distinct hashes, want 4", len(hashes))
	}
	if agg.Points != 4 || agg.OK != 4 {
		t.Fatalf("aggregate %+v", agg)
	}

	// Stats picked up the sweep counters.
	_, statsBody := get(t, ts.URL+"/v1/stats")
	var c service.Counters
	if err := json.Unmarshal(statsBody, &c); err != nil {
		t.Fatal(err)
	}
	if c.Sweeps != 1 || c.SweepPoints != 4 {
		t.Fatalf("stats %+v", c)
	}
}

func TestSweepRestartServedFromStore(t *testing.T) {
	dir := t.TempDir()
	open := func() *httptest.Server {
		disk, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return newTestServerOpts(t, service.Options{Workers: 2, Store: disk})
	}

	ts := open()
	code, body1 := post(t, ts.URL+"/v1/sweep", sweepDocJSON(900))
	if code != http.StatusOK {
		t.Fatalf("first sweep status %d", code)
	}
	points1, _ := decodeNDJSON(t, body1)

	// "Restart": a second daemon over the same store directory with a
	// cold memory cache.
	ts2 := open()
	code, body2 := post(t, ts2.URL+"/v1/sweep", sweepDocJSON(900))
	if code != http.StatusOK {
		t.Fatalf("second sweep status %d", code)
	}
	points2, agg2 := decodeNDJSON(t, body2)
	if len(points2) != len(points1) {
		t.Fatalf("point counts differ: %d vs %d", len(points2), len(points1))
	}
	for i := range points2 {
		if !bytes.Equal(points1[i].Report, points2[i].Report) {
			t.Fatalf("point %d report bytes differ across restart", i)
		}
	}
	if agg2.StoreHits != len(points2) {
		t.Fatalf("restart aggregate %+v, want %d store hits", agg2, len(points2))
	}
	_, statsBody := get(t, ts2.URL+"/v1/stats")
	var c service.Counters
	if err := json.Unmarshal(statsBody, &c); err != nil {
		t.Fatal(err)
	}
	if c.EngineRuns != 0 {
		t.Fatalf("restarted daemon ran %d engine runs, want 0", c.EngineRuns)
	}
	if c.StoreHits != int64(len(points2)) {
		t.Fatalf("store hits %d, want %d", c.StoreHits, len(points2))
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := post(t, ts.URL+"/v1/run", "{"); code != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/run", `{"design":{"masters":[]},"run":{"mode":"als","cycles":10}}`); code != http.StatusBadRequest {
		t.Fatalf("invalid spec status %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sweep", `{"specs": []}`); code != http.StatusBadRequest {
		t.Fatalf("empty sweep status %d", code)
	}
}

// TestUnrunnableSpecRejected posts a LOB depth the engine could never
// allocate, as a run body and as a sweep axis value. Allocating it is a
// fatal runtime error that no worker recover catches, so before the
// spec bound existed the daemon died; now each post is a 400 and the
// daemon keeps answering.
func TestUnrunnableSpecRejected(t *testing.T) {
	ts := newTestServer(t)
	run := strings.Replace(specJSON(200), `"cycles": 200`, `"cycles": 200, "lob_depth": 2000000000`, 1)
	code, body := post(t, ts.URL+"/v1/run", run)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "lob_depth") {
		t.Fatalf("run with lob_depth 2000000000: status %d: %s", code, body)
	}
	grid := strings.Replace(sweepDocJSON(200), `"values": [32, 64]`, `"values": [32, 2000000000]`, 1)
	code, body = post(t, ts.URL+"/v1/sweep", grid)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the maximum") {
		t.Fatalf("sweep with lob_depth 2000000000: status %d: %s", code, body)
	}
	// No spec can keep the merged trace: it would grow by one record
	// per committed cycle, so the cycle budget would size the daemon's
	// memory.
	run = strings.Replace(specJSON(200), `"cycles": 200`, `"cycles": 200, "keep_trace": true`, 1)
	code, body = post(t, ts.URL+"/v1/run", run)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "keep_trace") {
		t.Fatalf("run with keep_trace: status %d: %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the rejected posts: status %d: %s", code, body)
	}
}

func TestSweepServerPointBound(t *testing.T) {
	// The test server caps sweeps at 100 points; a document declaring a
	// bigger grid (and a permissive max_points of its own) must be
	// rejected before any expansion work happens.
	ts := newTestServer(t)
	vals := make([]string, 150)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", i+8)
	}
	doc := strings.Replace(sweepDocJSON(1000),
		`"sweep": {"axes": [`,
		fmt.Sprintf(`"sweep": {"max_points": 100000, "axes": [
	    {"field": "run.rollback_vars", "values": [%s]},`, strings.Join(vals, ",")),
		1)
	code, body := post(t, ts.URL+"/v1/sweep", doc)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized sweep status %d: %.200s", code, body)
	}
	if !strings.Contains(string(body), "server bound") {
		t.Fatalf("unexpected error body: %s", body)
	}
}

// parseServerTiming splits a Server-Timing header into its metric
// names, in order, and each metric's dur in milliseconds.
func parseServerTiming(t *testing.T, h string) ([]string, map[string]float64) {
	t.Helper()
	var names []string
	durs := map[string]float64{}
	for _, m := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(m), ";")
		names = append(names, parts[0])
		for _, p := range parts[1:] {
			v, ok := strings.CutPrefix(p, "dur=")
			if !ok {
				t.Fatalf("Server-Timing %q: parameter %q is not dur", h, p)
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil || d < 0 {
				t.Fatalf("Server-Timing %q: bad dur %q", h, v)
			}
			durs[parts[0]] = d
		}
	}
	return names, durs
}

// TestRunServerTiming reads /v1/run's Server-Timing header for a fresh
// run (admit, queue, engine, store, encode), a memory-cache repeat and
// a store hit after a restart (admit, the hit, encode), and checks that
// all three bodies are the canonical report bytes, indented, as before
// the header existed.
func TestRunServerTiming(t *testing.T) {
	dir := t.TempDir()
	open := func() *httptest.Server {
		disk, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return newTestServerOpts(t, service.Options{Workers: 2, Store: disk})
	}
	run := func(url string) (string, []byte) {
		resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(specJSON(4000)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("Server-Timing"), body
	}

	sp, err := spec.Parse([]byte(specJSON(4000)))
	if err != nil {
		t.Fatal(err)
	}
	ref := service.New(service.Options{Workers: 1})
	defer ref.Close()
	job, err := ref.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, res.JSON, "", "  "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')

	ts := open()
	for _, c := range []struct {
		label   string
		restart bool // a second daemon over the same store, cold cache
		names   []string
	}{
		{"fresh run", false, []string{"admit", "queue", "engine", "store", "encode"}},
		{"memory-cache repeat", false, []string{"admit", "cache-hit", "encode"}},
		{"store hit after a restart", true, []string{"admit", "store-hit", "encode"}},
	} {
		if c.restart {
			ts = open()
		}
		h, body := run(ts.URL)
		names, durs := parseServerTiming(t, h)
		if strings.Join(names, ",") != strings.Join(c.names, ",") {
			t.Fatalf("%s: Server-Timing %q, want metrics %v", c.label, h, c.names)
		}
		for _, part := range []string{"admit", "encode"} {
			if _, ok := durs[part]; !ok {
				t.Fatalf("%s: Server-Timing %q has no %s dur", c.label, h, part)
			}
		}
		if c.names[1] == "queue" && durs["engine"] <= 0 {
			t.Fatalf("%s: Server-Timing %q reads no engine time", c.label, h)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: body differs from the canonical report bytes", c.label)
		}
	}
}
