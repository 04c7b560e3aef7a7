package main

// The fleet chaos suite: a sharded sweep across three real daemons
// over one shared store, with the busiest daemon killed abruptly
// mid-sweep and the client itself killed mid-stream. A resumed client
// (same journal) must finish on the survivors alone, byte-identical
// to a fault-free local expansion; after the dead daemon restarts, a
// final full pass must start zero engine jobs — store-held points are
// never re-run.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
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

// fleetPoints expands a 12-point grid — wide enough that every shard
// holds several points when the kill lands.
func fleetPoints(t *testing.T) []*spec.Spec {
	t.Helper()
	doc := `{
	  "name": "fleet-grid",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x20000"}}]
	  },
	  "run": {"mode": "als", "cycles": 8000, "timeout": "1m"},
	  "sweep": {"axes": [
	    {"field": "run.accuracy", "values": [1, 0.9, 0.8, 0.5]},
	    {"field": "run.lob_depth", "values": [32, 64, 128]}
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

// fleetDaemon is a coemud instance that can be killed abruptly and
// restarted on the same address with the same store directory — the
// process-level failure the fleet client must ride out.
type fleetDaemon struct {
	t    *testing.T
	name string
	dir  string

	mu   sync.Mutex
	addr string
	srv  *http.Server
	svc  *service.Service
}

// fleetSlowPlan stretches every engine run so kills land mid-sweep.
// A pure delay: the differential suite pins that injected faults
// never perturb results.
var fleetSlowPlan = &faultplan.Plan{
	Seed:    7,
	Service: &faultplan.ServiceFault{SlowRun: 1, SlowDelayMS: 30},
}

func startFleetDaemon(t *testing.T, name, dir string) *fleetDaemon {
	d := &fleetDaemon{t: t, name: name, dir: dir, addr: "127.0.0.1:0"}
	d.start()
	t.Cleanup(d.kill)
	return d
}

func (d *fleetDaemon) start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ln net.Listener
	var err error
	// Rebinding a just-closed address can race the kernel briefly.
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", d.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		d.t.Fatalf("daemon %s: bind %s: %v", d.name, d.addr, err)
	}
	d.addr = ln.Addr().String()
	disk, err := store.Open(d.dir, store.Options{})
	if err != nil {
		d.t.Fatalf("daemon %s: open store: %v", d.name, err)
	}
	d.svc = service.New(service.Options{
		Workers: 2,
		Store:   disk,
		Faults:  fleetSlowPlan,
		Logf:    chaosLogf(d.t, d.name),
	})
	d.srv = &http.Server{Handler: newMux(d.svc, 1<<20, 100)}
	go d.srv.Serve(ln)
}

// kill cuts the listener and every live connection and cancels
// in-flight jobs — the socket-level shape of a SIGKILL.
func (d *fleetDaemon) kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.srv == nil {
		return
	}
	d.srv.Close()
	d.svc.Close()
	d.srv, d.svc = nil, nil
}

func (d *fleetDaemon) url() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return "http://" + d.addr
}

func (d *fleetDaemon) engineRuns() int64 {
	_, body := get(d.t, d.url()+"/v1/stats")
	var c service.Counters
	if err := json.Unmarshal(body, &c); err != nil {
		d.t.Fatalf("daemon %s: bad stats: %v: %s", d.name, err, body)
	}
	return c.EngineRuns
}

func TestFleetChaosSweep(t *testing.T) {
	points := fleetPoints(t)
	ref, _ := referenceSweep(t, points)

	storeDir := t.TempDir()
	daemons := []*fleetDaemon{
		startFleetDaemon(t, "fleet-d0", storeDir),
		startFleetDaemon(t, "fleet-d1", storeDir),
		startFleetDaemon(t, "fleet-d2", storeDir),
	}
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		urls[i] = d.url()
	}

	// Pick the kill victim up front: the daemon the ring hands the
	// most points. Its shard is guaranteed to still be in flight when
	// the survivors report their first finished runs.
	hashes := make([]string, len(points))
	for i, p := range points {
		h, err := p.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	ring, err := sweepclient.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	assign := ring.Assign(hashes, nil)
	victim, survivors := 0, []*fleetDaemon(nil)
	for i, d := range daemons {
		if len(assign[d.url()]) > len(assign[daemons[victim].url()]) {
			victim = i
		}
	}
	for i, d := range daemons {
		if i != victim {
			survivors = append(survivors, d)
		}
	}
	t.Logf("victim: daemon %d with %d of %d points", victim,
		len(assign[daemons[victim].url()]), len(points))

	jpath := filepath.Join(t.TempDir(), "resume.ndjson")
	newFleet := func(j *sweepclient.Journal, name string) *sweepclient.Fleet {
		f, err := sweepclient.NewFleet(sweepclient.FleetOptions{
			URLs:          urls,
			Retries:       20,
			BaseBackoff:   5 * time.Millisecond,
			MaxBackoff:    100 * time.Millisecond,
			ProbeInterval: 20 * time.Millisecond,
			FailThreshold: 2,
			Journal:       j,
			Logf:          chaosLogf(t, name),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Phase 1: the doomed client. As soon as the survivors report
	// finished runs, SIGKILL the victim mid-shard; as soon as the
	// client journals its first completed points, kill the client.
	j1, err := sweepclient.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	f1 := newFleet(j1, "fleet-client-1")
	go func() {
		defer close(done)
		f1.RunPoints(ctx, points) // this client dies; its outcome is irrelevant
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("survivors never reported a finished run")
		}
		runs := int64(0)
		for _, d := range survivors {
			runs += d.engineRuns()
		}
		if runs >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	daemons[victim].kill()
	t.Logf("daemon %d killed with %d/%d points journaled", victim, j1.Len(), len(points))
	for j1.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client journaled no progress after the kill")
		}
		select {
		case <-done:
			t.Fatal("client finished before it could be killed mid-stream")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	<-done
	f1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	journaled := j1.Len()
	t.Logf("client killed with %d/%d points journaled", journaled, len(points))
	if journaled == 0 || journaled >= len(points) {
		t.Fatalf("kill window missed: %d of %d points journaled, want a strict subset",
			journaled, len(points))
	}

	// Phase 2: the victim stays dead. A fresh client resumes from the
	// journal, must evict the dead member, finish the sweep on the
	// survivors alone, and settle byte-identical to the fault-free
	// reference.
	j2, err := sweepclient.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != journaled {
		t.Fatalf("journal reopened with %d records, want %d", j2.Len(), journaled)
	}
	f2 := newFleet(j2, "fleet-client-2")
	lines, _, err := f2.RunPoints(context.Background(), points)
	f2.Close()
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	requireRefIdentical(t, ref, lines, "resumed")

	// Phase 3: the victim restarts on its old address. A full pass
	// across the whole fleet must come entirely from the shared store:
	// zero engine jobs started on any daemon, identical bytes again.
	daemons[victim].start()
	before := int64(0)
	for _, d := range daemons {
		before += d.engineRuns()
	}
	f3 := newFleet(nil, "fleet-client-3")
	lines3, _, err := f3.RunPoints(context.Background(), points)
	f3.Close()
	if err != nil {
		t.Fatalf("verification sweep failed: %v", err)
	}
	requireRefIdentical(t, ref, lines3, "verification")
	after := int64(0)
	for _, d := range daemons {
		after += d.engineRuns()
	}
	if delta := after - before; delta != 0 {
		t.Fatalf("verification pass started %d engine jobs; store-held points must never re-run", delta)
	}
}

// requireRefIdentical asserts a sweep settled byte-identical to the
// fault-free reference lines.
func requireRefIdentical(t *testing.T, ref, lines []service.SweepLine, label string) {
	t.Helper()
	if len(lines) != len(ref) {
		t.Fatalf("%s sweep: %d lines for %d points", label, len(lines), len(ref))
	}
	for i := range lines {
		if lines[i].Error != "" {
			t.Fatalf("%s sweep: point %d (%s) failed: %s", label, i, lines[i].Name, lines[i].Error)
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
			t.Fatalf("%s sweep: point %d differs:\ngot:  %s\nwant: %s", label, i, got, want)
		}
	}
}
