package main

// The chaos differential suite: a remote sweep driven through two
// daemons under an aggressive fault plan — injected worker panics,
// slow runs, store write errors and torn writes, two store entries
// corrupted on disk up front, and one daemon killed mid-sweep — must
// converge to the exact NDJSON point lines a fault-free in-process
// sweep produces: every point present, byte-identical reports, no
// daemon crash. This is the end-to-end proof that fault injection
// perturbs only scheduling and effort, never results.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"coemu/internal/faultplan"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/store"
	"coemu/internal/sweepclient"
)

// chaosPoints expands the suite's 6-point grid. The run carries a
// generous timeout so the deadline path is armed without firing.
func chaosPoints(t *testing.T) []*spec.Spec {
	t.Helper()
	doc := `{
	  "name": "chaos-grid",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x20000"}}]
	  },
	  "run": {"mode": "als", "cycles": 5000, "timeout": "1m"},
	  "sweep": {"axes": [
	    {"field": "run.accuracy", "values": [1, 0.9, 0.5]},
	    {"field": "run.lob_depth", "values": [32, 64]}
	  ]}
	}`
	ss, err := spec.ParseSweep([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	points, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// referenceSweep runs the points on a fault-free in-process service
// and returns the canonical per-point lines plus each point's stored
// report bytes (for priming the chaos store).
func referenceSweep(t *testing.T, points []*spec.Spec) ([]service.SweepLine, map[string][]byte) {
	t.Helper()
	clean := service.New(service.Options{Workers: 2})
	defer clean.Close()
	sw, err := clean.StartSweepPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	agg := service.NewSweepAggregator(sw.Total())
	lines := make([]service.SweepLine, 0, sw.Total())
	byHash := make(map[string][]byte)
	for pr := range sw.Results() {
		if pr.Err != nil {
			t.Fatalf("fault-free reference point %d failed: %v", pr.Index, pr.Err)
		}
		lines = append(lines, agg.Add(pr))
		byHash[pr.Hash] = pr.Result.JSON
	}
	return lines, byHash
}

// chaosLogf routes a daemon's service log to CHAOS_LOG_DIR (for CI
// artifact upload on failure) or to the test log.
func chaosLogf(t *testing.T, name string) func(string, ...any) {
	dir := os.Getenv("CHAOS_LOG_DIR")
	if dir == "" {
		return t.Logf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, name+".log"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return log.New(f, name+" ", log.LstdFlags|log.Lmicroseconds).Printf
}

func TestChaosDifferentialSweep(t *testing.T) {
	points := chaosPoints(t)
	ref, byHash := referenceSweep(t, points)

	// Shared store, primed with two entries that are then corrupted on
	// disk — the torn garbage a crashed writer or bad disk leaves.
	dir := t.TempDir()
	prime, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, i := range []int{0, 3} {
		h := ref[i].Hash
		if err := prime.Put(h, byHash[h]); err != nil {
			t.Fatal(err)
		}
		garbage := []byte(fmt.Sprintf("torn garbage %d — not json, wrong hash", i))
		if err := os.WriteFile(filepath.Join(dir, h[:2], h+".json"), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}

	plan := &faultplan.Plan{
		Seed:    42,
		Service: &faultplan.ServiceFault{WorkerPanic: 0.25, SlowRun: 0.5, SlowDelayMS: 20},
		Store:   &faultplan.StoreFault{WriteError: 0.3, TornWrite: 0.3},
	}

	newDaemon := func(name string, seed uint64) (*service.Service, *httptest.Server) {
		disk, err := store.Open(dir, store.Options{Faults: plan.Store, FaultSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{
			Workers: 2,
			Store:   disk,
			Faults:  plan,
			Logf:    chaosLogf(t, name),
		})
		return svc, httptest.NewServer(newMux(svc, 1<<20, 100))
	}
	svcA, srvA := newDaemon("daemon-a", plan.Seed)
	svcB, srvB := newDaemon("daemon-b", plan.Seed+1)
	t.Cleanup(func() {
		srvB.Close()
		svcB.Close()
	})

	// Kill daemon A mid-sweep: cut its client streams, stop its
	// listener, cancel its jobs. The fleet must evict A, re-shard only
	// A's missing points onto B, and settle every point there.
	var killOnce sync.Once
	killA := func() {
		killOnce.Do(func() {
			srvA.CloseClientConnections()
			srvA.Close()
			svcA.Close()
		})
	}
	timer := time.AfterFunc(75*time.Millisecond, killA)
	defer timer.Stop()
	defer killA()

	fleet, err := sweepclient.NewFleet(sweepclient.FleetOptions{
		URLs:        []string{srvA.URL, srvB.URL},
		Retries:     40,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	lines, _, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}

	// Every point settled cleanly and byte-identically to the
	// fault-free reference — no completed point lost, none perturbed.
	if len(lines) != len(ref) {
		t.Fatalf("%d lines for %d points", len(lines), len(ref))
	}
	for i := range lines {
		if lines[i].Error != "" {
			t.Fatalf("point %d (%s) failed under chaos: %s", i, lines[i].Name, lines[i].Error)
		}
		got, err := json.Marshal(&lines[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&ref[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("point %d differs under chaos:\ngot:  %s\nwant: %s", i, got, want)
		}
	}

	// The corrupted entries were detected and quarantined, not served.
	qfiles, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) == 0 {
		t.Fatalf("no quarantined entries after %d corrupted on disk", corrupted)
	}

	// The surviving daemon is still healthy and serving.
	code, body := get(t, srvB.URL+"/v1/healthz")
	if code != 200 {
		t.Fatalf("daemon B /v1/healthz = %d: %s", code, body)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(body, &health); err != nil || !health.OK {
		t.Fatalf("daemon B unhealthy after the storm: %s", body)
	}
}
