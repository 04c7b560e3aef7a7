package core

import (
	"strings"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/vclock"
)

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		Conservative: "conservative", SLA: "SLA", ALS: "ALS", Auto: "auto",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode string")
	}
}

func TestDirFrom(t *testing.T) {
	if dirFrom(SimDomain) != channel.SimToAcc || dirFrom(AccDomain) != channel.AccToSim {
		t.Fatal("channel directions wrong")
	}
}

func TestRollbackVarsOverrideChangesStoreCost(t *testing.T) {
	d := streamDesign(SimDomain, AccDomain, 0, 0) // SLA: software store costs
	run := func(vars int) *Report {
		e, err := NewEngine(d, Config{Mode: SLA, RollbackVars: vars})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	small := run(10)
	big := run(100000)
	if big.Ledger.Get(vclock.Store) <= small.Ledger.Get(vclock.Store) {
		t.Fatalf("store cost did not scale with rollback vars: %v vs %v",
			big.Ledger.Get(vclock.Store), small.Ledger.Get(vclock.Store))
	}
	// And it must actually hurt performance.
	if big.Perf() >= small.Perf() {
		t.Fatal("heavier state should cost performance in SLA")
	}
}

func TestFlushDirectionFollowsLeader(t *testing.T) {
	// ALS: flushes travel acc→sim, so that direction carries the bulk.
	als, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	repA, err := als.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Channel.Words[channel.AccToSim] <= repA.Channel.Words[channel.SimToAcc] {
		t.Fatalf("ALS words: acc->sim %d should dominate sim->acc %d",
			repA.Channel.Words[channel.AccToSim], repA.Channel.Words[channel.SimToAcc])
	}
	// SLA: the opposite.
	sla, err := NewEngine(streamDesign(SimDomain, AccDomain, 0, 0), Config{Mode: SLA})
	if err != nil {
		t.Fatal(err)
	}
	repS, err := sla.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if repS.Channel.Words[channel.SimToAcc] <= repS.Channel.Words[channel.AccToSim] {
		t.Fatalf("SLA words: sim->acc %d should dominate acc->sim %d",
			repS.Channel.Words[channel.SimToAcc], repS.Channel.Words[channel.AccToSim])
	}
}

func TestLOBDepthTooSmallRejected(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	if _, err := NewEngine(d, Config{LOBDepth: 3}); err == nil {
		t.Fatal("tiny LOB must be rejected")
	}
}

func TestDomainGuards(t *testing.T) {
	e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dom := e.Domain(AccDomain)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	var out, none amba.PartialState
	mustPanic("commit without evaluate", func() {
		dom.CommitFrom(&none)
	})

	// Evaluate twice without commit panics; so does a mid-cycle snapshot.
	var l vclock.Ledger
	dom.EvaluateInto(&l, &out)
	mustPanic("double evaluate", func() { dom.EvaluateInto(&l, &out) })
	mustPanic("snapshot mid-cycle", func() { dom.Snapshot(&l, 10) })
}

func TestReportHistogramsPopulated(t *testing.T) {
	e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: ALS, Accuracy: 0.7, FaultSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransitionLengths.N() == 0 {
		t.Fatal("transition lengths not recorded")
	}
	if rep.RollForthLengths.N() == 0 {
		t.Fatal("roll-forth lengths not recorded")
	}
	if rep.LOBPeakWords == 0 {
		t.Fatal("LOB peak not recorded")
	}
	if rep.Stats.Stores == 0 || rep.Stats.Restores == 0 {
		t.Fatal("store/restore counters not populated")
	}
	if rep.Stats.Stores != rep.Stats.Transitions {
		t.Fatalf("stores %d != transitions %d", rep.Stats.Stores, rep.Stats.Transitions)
	}
	if rep.Stats.Restores != rep.Stats.Rollbacks {
		t.Fatalf("restores %d != rollbacks %d", rep.Stats.Restores, rep.Stats.Rollbacks)
	}
}

func TestConservedCycleAccounting(t *testing.T) {
	// Committed cycles must equal conservative + follow-up cycles plus
	// nothing else (run-ahead commits are counted at follow-up time).
	e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: ALS, Accuracy: 0.8, FaultSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Stats.ConservativeCycles + rep.Stats.FollowUpCycles; got != rep.Cycles {
		t.Fatalf("cycle accounting: conservative %d + follow-up %d != committed %d",
			rep.Stats.ConservativeCycles, rep.Stats.FollowUpCycles, rep.Cycles)
	}
	// Each domain's clock must have advanced exactly Cycles times at
	// the end of a run (leaders roll back to the committed horizon).
	if e.Domain(SimDomain).Now() != rep.Cycles || e.Domain(AccDomain).Now() != rep.Cycles {
		t.Fatalf("domain clocks %d/%d, want %d",
			e.Domain(SimDomain).Now(), e.Domain(AccDomain).Now(), rep.Cycles)
	}
}

func TestDeclineReasonsSurfaceInStats(t *testing.T) {
	// Duplex traffic flips data direction, so declines of several kinds
	// must be counted.
	e, err := NewEngine(duplexDesign(3), Config{Mode: Auto})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats.Declines) == 0 {
		t.Fatal("no decline reasons recorded")
	}
	total := int64(0)
	for _, n := range rep.Stats.Declines {
		total += n
	}
	if total == 0 {
		t.Fatal("decline counters all zero")
	}
}
