package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/ip"
	"coemu/internal/trace"
	"coemu/internal/workload"
)

// runTraced executes the duplex design with the given accuracy twice —
// tracer detached and attached — and returns both reports plus the
// recorder. The fixture mixes conservative stretches, both leader
// directions, quiescent batches and (at accuracy < 1) rollbacks, so one
// run exercises every tracer hook.
func runTraced(t *testing.T, accuracy float64) (*Report, *Report, *trace.Recorder) {
	t.Helper()
	run := func(rec *trace.Recorder) *Report {
		cfg := Config{Mode: Auto, KeepTrace: true, CheckProtocol: true, Tracer: rec}
		if accuracy < 1 {
			cfg.Accuracy = accuracy
			cfg.FaultSeed = 11
		}
		e, err := NewEngine(duplexDesign(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rec := trace.NewRecorder(1 << 18)
	return run(nil), run(rec), rec
}

// TestTracerDifferentialIdentity pins the tracer as a pure observer:
// the full report — modeled time, channel statistics, behavioral
// counters, histograms and the committed cycle trace — is identical
// with the tracer attached and detached.
func TestTracerDifferentialIdentity(t *testing.T) {
	for _, accuracy := range []float64{1, 0.9} {
		off, on, rec := runTraced(t, accuracy)
		if rec.Len() == 0 {
			t.Fatal("tracer recorded nothing")
		}
		if !reflect.DeepEqual(off.Stats, on.Stats) {
			t.Errorf("accuracy %v: stats diverged with tracer on:\noff: %+v\non:  %+v", accuracy, off.Stats, on.Stats)
		}
		if off.Ledger != on.Ledger {
			t.Errorf("accuracy %v: ledger diverged: %+v vs %+v", accuracy, off.Ledger, on.Ledger)
		}
		if !reflect.DeepEqual(off.Channel, on.Channel) {
			t.Errorf("accuracy %v: channel stats diverged", accuracy)
		}
		if d := diffTraces("tracer off", "tracer on", off.Trace, on.Trace); d != "" {
			t.Fatalf("accuracy %v: committed trace diverged: %s", accuracy, d)
		}
		if !reflect.DeepEqual(off.TransitionLengths, on.TransitionLengths) ||
			!reflect.DeepEqual(off.RollForthLengths, on.RollForthLengths) {
			t.Errorf("accuracy %v: histograms diverged", accuracy)
		}
	}
}

// TestTracerEventsMatchStats cross-checks the recorded event stream
// against the engine's own counters: every protocol phase the stats
// account for must appear in the trace with matching totals.
func TestTracerEventsMatchStats(t *testing.T) {
	_, rep, rec := runTraced(t, 0.9)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the test ring", rec.Dropped())
	}
	var (
		consCycles, raCycles, fuCycles, rfCycles int64
		rollbacks, stores, flushes, mispredicts  int64
		syncs                                    int64
	)
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvConservative:
			consCycles += ev.N
		case trace.EvRunAhead:
			raCycles += ev.N
		case trace.EvFollowUp:
			fuCycles += ev.N
		case trace.EvRollForth:
			rfCycles += ev.N
		case trace.EvRollback:
			rollbacks++
			if ev.Arg <= 0 {
				t.Errorf("rollback without depth: %+v", ev)
			}
		case trace.EvStore:
			stores++
		case trace.EvFlush:
			flushes++
			if ev.Arg <= 0 {
				t.Errorf("flush without payload words: %+v", ev)
			}
		case trace.EvMispredict:
			mispredicts++
		case trace.EvSync:
			syncs++
		}
	}
	st := rep.Stats
	if consCycles != st.ConservativeCycles {
		t.Errorf("conservative span cycles = %d, stats say %d", consCycles, st.ConservativeCycles)
	}
	if raCycles != st.RunAheadCycles {
		t.Errorf("run-ahead span cycles = %d, stats say %d", raCycles, st.RunAheadCycles)
	}
	if fuCycles != st.FollowUpCycles {
		t.Errorf("follow-up span cycles = %d, stats say %d", fuCycles, st.FollowUpCycles)
	}
	if rfCycles != st.RollForthCycles {
		t.Errorf("roll-forth span cycles = %d, stats say %d", rfCycles, st.RollForthCycles)
	}
	if rollbacks != st.Rollbacks {
		t.Errorf("rollback events = %d, stats say %d", rollbacks, st.Rollbacks)
	}
	if stores != st.Stores {
		t.Errorf("store events = %d, stats say %d", stores, st.Stores)
	}
	if mispredicts != st.Mispredicts {
		t.Errorf("mispredict events = %d, stats say %d", mispredicts, st.Mispredicts)
	}
	if flushes != st.Transitions || syncs != st.Transitions {
		t.Errorf("flush/sync events = %d/%d, transitions = %d", flushes, syncs, st.Transitions)
	}
	if st.Rollbacks == 0 {
		t.Error("fixture produced no rollbacks; the trace never exercised the recovery path")
	}

	// The real event stream must export as a valid Perfetto-loadable
	// document with the protocol tracks populated.
	var b strings.Builder
	if err := trace.WriteChromeTrace(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &arr); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, rec := range arr {
		if n, ok := rec["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"conservative", "run_ahead", "follow_up", "rollback", "flush"} {
		if !names[want] {
			t.Errorf("chrome export missing %q records", want)
		}
	}
}

// TestTracerEnabledAllocFree extends the steady-state allocation guards
// to a run with the tracer attached: Record writes into the
// preallocated ring, so enabling tracing must not add a single
// allocation to the cycle loop.
func TestTracerEnabledAllocFree(t *testing.T) {
	d := allocDesign()
	d.Masters[0].NewGen = func() ip.Generator {
		return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
			amba.BurstIncr8, amba.Size32, 0, 0, 0)
	}
	// A deliberately tiny ring: the guard also covers the wrapped
	// (overwrite) path of Record.
	e, err := NewEngine(d, Config{Mode: ALS, Tracer: trace.NewRecorder(64)})
	if err != nil {
		t.Fatal(err)
	}
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		transition()
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("traced ALS transition allocated %.1f objects, want 0", allocs)
	}
}
