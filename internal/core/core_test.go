package core

import (
	"fmt"
	"strings"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/perfmodel"
	"coemu/internal/trace"
	"coemu/internal/workload"
)

// --- design fixtures -------------------------------------------------

// streamDesign: one write-streaming master, one deterministic memory,
// placed in the given domains. With masterDom==AccDomain and
// slaveDom==SimDomain this is the canonical ALS configuration: data
// flows acc→sim, the accelerator leads.
func streamDesign(masterDom, slaveDom DomainID, waits int, maxXfers int64) Design {
	return Design{
		Masters: []MasterSpec{{
			Name:   "dma",
			Domain: masterDom,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0x0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 0, maxXfers)
			},
		}},
		Slaves: []SlaveSpec{{
			Name:      "mem",
			Domain:    slaveDom,
			Region:    bus.Region{Lo: 0x0, Hi: 0x8000},
			New:       func() bus.Slave { return ip.NewMemory("mem", waits, waits) },
			WaitFirst: waits, WaitNext: waits,
		}},
	}
}

// duplexDesign mixes directions and domains: a DMA copying between a
// sim-side and an acc-side memory, plus a CPU-like master, plus an IRQ
// peripheral. Exercises leader flips, read barriers and interrupts.
func duplexDesign(seed uint64) Design {
	return Design{
		Masters: []MasterSpec{
			{
				Name:   "dma",
				Domain: AccDomain,
				NewGen: func() ip.Generator {
					return workload.NewDMACopy(
						workload.Window{Lo: 0x0000, Hi: 0x0800},
						workload.Window{Lo: 0x8000, Hi: 0x8800},
						amba.BurstIncr8, 2, 40)
				},
			},
			{
				Name:   "cpu",
				Domain: SimDomain,
				NewGen: func() ip.Generator {
					return workload.NewCPU([]workload.Window{
						{Lo: 0x0000, Hi: 0x0800},
						{Lo: 0x8000, Hi: 0x8800},
					}, 0.5, 6, 60, seed)
				},
			},
		},
		Slaves: []SlaveSpec{
			{
				Name:   "sram",
				Domain: SimDomain,
				Region: bus.Region{Lo: 0x0000, Hi: 0x4000},
				New:    func() bus.Slave { return ip.NewSRAM("sram") },
			},
			{
				Name:      "ddr",
				Domain:    AccDomain,
				Region:    bus.Region{Lo: 0x8000, Hi: 0xC000},
				New:       func() bus.Slave { return ip.NewMemory("ddr", 2, 1) },
				WaitFirst: 2, WaitNext: 1,
			},
			{
				Name:      "irqc",
				Domain:    AccDomain,
				Region:    bus.Region{Lo: 0xF000, Hi: 0xF100},
				New:       func() bus.Slave { return ip.NewIRQPeriph("irqc", 0x1) },
				IRQMask:   0x1,
				WaitFirst: 1, WaitNext: 1,
			},
		},
	}
}

// runBoth executes the reference and the co-emulated system and fails
// the test on any trace divergence.
func runBoth(t *testing.T, d Design, cfg Config, cycles int64) *Report {
	t.Helper()
	cfg.KeepTrace = true
	cfg.CheckProtocol = true
	want, err := RunReference(d, cycles)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rep, err := e.Run(cycles)
	if err != nil {
		t.Fatalf("run (%v): %v", cfg.Mode, err)
	}
	if rep.Cycles != cycles {
		t.Fatalf("committed %d cycles, want %d", rep.Cycles, cycles)
	}
	if int64(len(rep.Trace)) != cycles {
		t.Fatalf("trace has %d cycles, want %d", len(rep.Trace), cycles)
	}
	if d := diffTraces("ref", "split", want, rep.Trace); d != "" {
		t.Fatalf("mode %v: %s", cfg.Mode, d)
	}
	return rep
}

// diffTraces returns "" when a and b agree cycle for cycle and in
// length, and otherwise trace.WriteDiffReport's account of the first
// divergence with two cycles of context either side.
func diffTraces(nameA, nameB string, a, b []amba.CycleState) string {
	if trace.Diff(a, b).Identical() {
		return ""
	}
	var report strings.Builder
	trace.WriteDiffReport(&report, nameA, nameB, a, b, 2)
	return report.String()
}

// --- LOB -------------------------------------------------------------

// keep fills the LOB's next slot with e and keeps it.
func keep(l *LOB, e Entry) {
	*l.Slot() = e
	l.Keep()
}

// lobPanic returns what keeping e into l panics with ("" for none).
func lobPanic(l *LOB, e Entry) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	keep(l, e)
	return ""
}

func TestLOBPushFlushAccounting(t *testing.T) {
	l := NewLOB(32)
	e := Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true}
	slot := l.Slot()
	*slot = e
	if l.Len() != 0 {
		t.Fatalf("len = %d before Keep, want 0", l.Len())
	}
	l.Keep()
	if l.Len() != 1 || &l.Entries()[0] != slot {
		t.Fatalf("len = %d, or the kept entry is not the slot handed out", l.Len())
	}
	wantWords := 1 + e.Words()
	if l.Words() != wantWords {
		t.Fatalf("words = %d, want %d", l.Words(), wantWords)
	}
	l.Reset()
	if l.Len() != 0 || l.Words() != 1 {
		t.Fatal("reset bookkeeping wrong")
	}
	if l.PeakWords() != wantWords {
		t.Fatalf("peak = %d", l.PeakWords())
	}
	// A recycled slot comes back with its size memo cleared: a bare
	// entry written over the predicted one above is sized afresh.
	s := l.Slot()
	s.Pred, s.HasPred = amba.PartialState{}, false
	l.Keep()
	if want := 1 + e.Out.PackedWords(); l.Words() != want {
		t.Fatalf("words = %d after recycling the slot, want %d", l.Words(), want)
	}
}

func TestLOBOverflowPanics(t *testing.T) {
	e := Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true}
	const depth = 8
	l := NewLOB(depth)
	for l.Words()+e.Words() <= depth {
		keep(l, e)
	}
	n, words := l.Len(), l.Words()
	if msg := lobPanic(l, e); !strings.Contains(msg, "LOB overflow") {
		t.Fatalf("keeping entry %d (%d+%d > %d words): recovered %q, want the overflow panic",
			n, words, e.Words(), depth, msg)
	}
	if l.Len() != n || l.Words() != words {
		t.Fatalf("overflowing keep changed the buffer: len %d words %d, want %d and %d", l.Len(), l.Words(), n, words)
	}
}

func TestLOBPushAfterFinalPanics(t *testing.T) {
	l := NewLOB(32)
	keep(l, Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true})
	keep(l, Entry{Out: amba.PartialState{ReqMask: 1}}) // final: no prediction
	msg := lobPanic(l, Entry{Out: amba.PartialState{ReqMask: 1}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true})
	if !strings.Contains(msg, "after the final") {
		t.Fatalf("keeping an entry after the final one: recovered %q, want the after-final panic", msg)
	}
}

func TestLOBDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero depth must panic")
		}
	}()
	NewLOB(0)
}

// --- packets ----------------------------------------------------------

func TestFlushPacketRoundTrip(t *testing.T) {
	entries := []Entry{
		{Out: amba.PartialState{ReqMask: 1, Req: 1, HasWData: true, WData: 7}, Pred: amba.PartialState{ReqMask: 2, HasReply: true, Reply: amba.OkayReady()}, HasPred: true},
		{Out: amba.PartialState{ReqMask: 1, HasAP: true, AP: amba.AddrPhase{Addr: 8, Trans: amba.TransSeq, Size: amba.Size32, Burst: amba.BurstIncr8}}, Pred: amba.PartialState{ReqMask: 2}, HasPred: true},
		{Out: amba.PartialState{ReqMask: 1}},
	}
	pkt := packFlush(nil, entries)
	got, err := unpackFlush(nil, pkt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d entries", len(got))
	}
	for i := range entries {
		if !got[i].Out.Equal(entries[i].Out) || got[i].HasPred != entries[i].HasPred {
			t.Fatalf("entry %d mismatch", i)
		}
		if entries[i].HasPred && !got[i].Pred.Equal(entries[i].Pred) {
			t.Fatalf("entry %d pred mismatch", i)
		}
	}
}

func TestReportPacketRoundTrip(t *testing.T) {
	actual := amba.PartialState{ReqMask: 3, Req: 1, HasReply: true, Reply: amba.SlaveReply{Ready: true, RData: 0xBEEF}}
	ok, _, got, err := unpackReport(packReport(nil, true, 0, actual), 0)
	if err != nil || !ok || !got.Equal(actual) {
		t.Fatalf("success report: ok=%v err=%v", ok, err)
	}
	ok, idx, got, err := unpackReport(packReport(nil, false, 17, actual), 0)
	if err != nil || ok || idx != 17 || !got.Equal(actual) {
		t.Fatalf("failure report: ok=%v idx=%d err=%v", ok, idx, err)
	}
}

func TestPacketErrors(t *testing.T) {
	if _, err := unpackFlush(nil, nil, 0, 0); err == nil {
		t.Error("empty flush must fail")
	}
	if _, err := unpackFlush(nil, []amba.Word{0}, 0, 0); err == nil {
		t.Error("zero-entry flush must fail")
	}
	if _, _, _, err := unpackReport(nil, 0); err == nil {
		t.Error("empty report must fail")
	}
}

// --- equivalence ------------------------------------------------------

func TestConservativeEquivalence(t *testing.T) {
	rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: Conservative}, 400)
	if rep.Stats.Transitions != 0 {
		t.Fatal("conservative mode must not open transitions")
	}
	if rep.Stats.ConservativeCycles != 400 {
		t.Fatalf("conservative cycles = %d", rep.Stats.ConservativeCycles)
	}
	// Two accesses per cycle, the conventional pattern.
	if got := rep.Channel.TotalAccesses(); got != 800 {
		t.Fatalf("accesses = %d, want 800", got)
	}
}

func TestALSEquivalenceStreaming(t *testing.T) {
	rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0), Config{Mode: ALS}, 600)
	if rep.Stats.Transitions == 0 {
		t.Fatal("ALS on a write stream must open transitions")
	}
	if rep.Stats.RunAheadCycles == 0 {
		t.Fatal("no run-ahead cycles")
	}
	if rep.Stats.Mispredicts != 0 {
		t.Fatalf("deterministic design mispredicted %d times", rep.Stats.Mispredicts)
	}
	// The whole point: far fewer channel accesses than 2/cycle.
	if got := rep.Channel.TotalAccesses(); got >= 600 {
		t.Fatalf("accesses = %d, want far fewer than 2x600", got)
	}
}

func TestSLAEquivalenceStreaming(t *testing.T) {
	rep := runBoth(t, streamDesign(SimDomain, AccDomain, 1, 0), Config{Mode: SLA}, 600)
	if rep.Stats.Transitions == 0 {
		t.Fatal("SLA on a write stream must open transitions")
	}
	if rep.Stats.TransitionsByLead[AccDomain] != 0 {
		t.Fatal("SLA must never let the accelerator lead")
	}
}

func TestALSDeclinesWhenDataFlowsBackward(t *testing.T) {
	// Master in acc reads from a sim memory: read data flows sim→acc,
	// so the accelerator cannot lead; ALS degenerates to conservative.
	d := Design{
		Masters: []MasterSpec{{
			Name: "rdr", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x1000}, false,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x8000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
	rep := runBoth(t, d, Config{Mode: ALS}, 300)
	if rep.Stats.RunAheadCycles > rep.Stats.ConservativeCycles {
		t.Fatalf("read-dominated ALS should be mostly conservative: RA=%d C=%d",
			rep.Stats.RunAheadCycles, rep.Stats.ConservativeCycles)
	}
	if rep.Stats.Declines[DeclineReadData] == 0 {
		t.Fatal("expected read-data declines")
	}
}

func TestAutoEquivalenceDuplex(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 11, 42} {
		rep := runBoth(t, duplexDesign(seed), Config{Mode: Auto}, 800)
		if rep.Stats.Transitions == 0 {
			t.Fatalf("seed %d: auto mode never led", seed)
		}
	}
}

func TestAutoLeaderFollowsDataSource(t *testing.T) {
	rep := runBoth(t, duplexDesign(7), Config{Mode: Auto}, 800)
	if rep.Stats.TransitionsByLead[SimDomain] == 0 || rep.Stats.TransitionsByLead[AccDomain] == 0 {
		t.Fatalf("duplex traffic should let both domains lead: %v", rep.Stats.TransitionsByLead)
	}
}

func TestEquivalenceUnderInjectedFaults(t *testing.T) {
	for _, p := range []float64{0.95, 0.8, 0.5, 0.2} {
		rep := runBoth(t, streamDesign(AccDomain, SimDomain, 0, 0),
			Config{Mode: ALS, Accuracy: p, FaultSeed: 99}, 500)
		if rep.Stats.Injected == 0 {
			t.Fatalf("p=%v: no faults injected", p)
		}
		if rep.Stats.Rollbacks == 0 {
			t.Fatalf("p=%v: faults but no rollbacks", p)
		}
		if rep.Stats.RollForthCycles == 0 {
			t.Fatalf("p=%v: rollbacks but no roll-forth", p)
		}
	}
}

func TestEquivalenceUnderOrganicMispredictions(t *testing.T) {
	// The remote memory jitters; the wait model assumes the base
	// profile, so mispredictions arise organically.
	d := streamDesign(AccDomain, SimDomain, 1, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewJitterMemory("mem", 1, 2, 31) }
	rep := runBoth(t, d, Config{Mode: ALS}, 600)
	if rep.Stats.Mispredicts == 0 {
		t.Fatal("jittery slave must cause organic mispredictions")
	}
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("mispredictions must cause rollbacks")
	}
}

func TestEquivalenceErrorResponses(t *testing.T) {
	// Stream aimed partly at an unmapped hole: default-slave two-cycle
	// ERRORs cross the domain boundary.
	d := Design{
		Masters: []MasterSpec{{
			Name: "m", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewSequence(
					ip.Xfer{Addr: 0x100, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{1, 2, 3, 4}},
					ip.Xfer{Addr: 0x9000, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{5}},
					ip.Xfer{Addr: 0x110, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{6}},
				)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x1000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
	for _, mode := range []Mode{Conservative, ALS, Auto} {
		runBoth(t, d, Config{Mode: mode}, 60)
	}
}

func TestEquivalenceRetrySlave(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	d.Slaves[0].New = func() bus.Slave { return ip.NewRetryMemory("mem", 0, 5) }
	for _, mode := range []Mode{Conservative, ALS} {
		rep := runBoth(t, d, Config{Mode: mode}, 400)
		if mode == ALS && rep.Stats.Mispredicts == 0 {
			t.Fatal("RETRY responses must defeat the OKAY-only wait model")
		}
	}
}

func TestEquivalenceSplitSlave(t *testing.T) {
	// A SPLIT-capable memory in the simulator, written by an RTL master
	// in the accelerator. SPLIT responses and HSPLITx release pulses
	// cross the domain boundary; the leader's wait model knows nothing
	// about them, so every split costs rollbacks — and the trace must
	// still be cycle-exact.
	d := Design{
		Masters: []MasterSpec{{
			Name: "dma", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "smem", Domain: SimDomain,
			Region:       bus.Region{Lo: 0, Hi: 0x8000},
			New:          func() bus.Slave { return ip.NewSplitMemory("smem", 0, 5, 6) },
			SplitCapable: true,
		}},
	}
	for _, mode := range []Mode{Conservative, ALS, Auto} {
		rep := runBoth(t, d, Config{Mode: mode}, 500)
		if mode != Conservative && rep.Stats.Mispredicts == 0 {
			t.Fatalf("mode %v: SPLIT traffic must defeat the wait model", mode)
		}
	}
}

func TestEquivalenceSplitContention(t *testing.T) {
	// Two masters in different domains; the split slave parks the
	// high-priority one so the low-priority one overtakes — across the
	// domain boundary, under the optimistic protocol.
	d := Design{
		Masters: []MasterSpec{
			{
				Name: "hp", Domain: AccDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0, Hi: 0x1000}, true,
						amba.BurstIncr8, amba.Size32, 0, 0, 20)
				},
			},
			{
				Name: "lp", Domain: SimDomain,
				NewGen: func() ip.Generator {
					return workload.NewStream(workload.Window{Lo: 0x8000, Hi: 0x9000}, true,
						amba.BurstIncr4, amba.Size32, 0, 0, 20)
				},
			},
		},
		Slaves: []SlaveSpec{
			{
				Name: "smem", Domain: SimDomain,
				Region:       bus.Region{Lo: 0, Hi: 0x8000},
				New:          func() bus.Slave { return ip.NewSplitMemory("smem", 0, 3, 8) },
				SplitCapable: true,
			},
			{
				Name: "sram", Domain: AccDomain,
				Region: bus.Region{Lo: 0x8000, Hi: 0xA000},
				New:    func() bus.Slave { return ip.NewSRAM("sram") },
			},
		},
	}
	for _, mode := range []Mode{Conservative, Auto} {
		runBoth(t, d, Config{Mode: mode}, 600)
	}
}

func TestSplitCapableFlagValidated(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	// Lies about split capability: the slave is a plain Memory.
	d.Slaves[0].SplitCapable = true
	defer func() {
		if recover() == nil {
			t.Fatal("SplitCapable mismatch must panic at build")
		}
	}()
	_, _ = NewEngine(d, Config{})
}

func TestEquivalenceAllModesManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	for _, mode := range []Mode{Conservative, SLA, ALS, Auto} {
		for _, seed := range []uint64{5, 17, 23} {
			runBoth(t, duplexDesign(seed), Config{Mode: mode}, 500)
		}
	}
}

// --- adaptive governor ---------------------------------------------------

func TestExtensionsEquivalenceMatrix(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		d := duplexDesign(seed)
		for _, cfg := range []Config{
			{Mode: Auto},
			{Mode: Auto, Adaptive: true},
		} {
			runBoth(t, d, cfg, 500)
		}
	}
}

func TestAdaptiveGovernorLimitsLowAccuracyLoss(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	const cycles = 4000
	run := func(cfg Config) *Report {
		e, err := NewEngine(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(cycles)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(Config{Mode: ALS, Accuracy: 0.05, FaultSeed: 8})
	adaptive := run(Config{Mode: ALS, Accuracy: 0.05, FaultSeed: 8, Adaptive: true})
	if adaptive.Perf() <= plain.Perf() {
		t.Fatalf("governor did not help at 5%% accuracy: %.0f vs %.0f cyc/s",
			adaptive.Perf(), plain.Perf())
	}
	if adaptive.Stats.ConservativeCycles == 0 {
		t.Fatal("governor never backed off")
	}
	// At high accuracy the governor must stay out of the way.
	good := run(Config{Mode: ALS, Adaptive: true})
	ref := run(Config{Mode: ALS})
	if good.Perf() < 0.95*ref.Perf() {
		t.Fatalf("governor throttled a healthy run: %.0f vs %.0f", good.Perf(), ref.Perf())
	}
}

// TestDESMatchesAnalyticConventional cross-validates the executable
// engine against the closed-form model on the one configuration where
// both are exactly specified: conservative mode.
func TestDESMatchesAnalyticConventional(t *testing.T) {
	for _, simSpeed := range []float64{1e5, 1e6} {
		e, err := NewEngine(streamDesign(AccDomain, SimDomain, 0, 0),
			Config{Mode: Conservative, SimSpeed: simSpeed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		p := perfmodel.Default()
		p.SimSpeed = simSpeed
		want := p.Conventional()
		got := rep.Perf()
		if rel := (got - want) / want; rel > 0.02 || rel < -0.02 {
			t.Fatalf("sim=%v: DES conventional %.1f vs analytic %.1f (%.1f%% off)",
				simSpeed, got, want, 100*rel)
		}
	}
}

// --- performance sanity ------------------------------------------------

func TestPredictiveBeatsConservative(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	e1, err := NewEngine(d, Config{Mode: Conservative})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := e1.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d, Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	als, err := e2.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	gain := als.Perf() / conv.Perf()
	if gain < 2 {
		t.Fatalf("ALS gain over conventional = %.2f, want >= 2 (conv %.0f vs ALS %.0f cyc/s)",
			gain, conv.Perf(), als.Perf())
	}
	t.Logf("conventional %.1f kcyc/s, ALS %.1f kcyc/s, gain %.2fx",
		conv.Perf()/1e3, als.Perf()/1e3, gain)
}

func TestAccuracyDegradesPerformance(t *testing.T) {
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	var prev float64
	for i, p := range []float64{1.0, 0.9, 0.5} {
		e, err := NewEngine(d, Config{Mode: ALS, Accuracy: p, FaultSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		perf := rep.Perf()
		if i > 0 && perf >= prev {
			t.Fatalf("perf did not degrade: p=%v gives %.0f >= %.0f", p, perf, prev)
		}
		prev = perf
	}
}

// --- report / config ---------------------------------------------------

func TestEngineRejectsBadInput(t *testing.T) {
	if _, err := NewEngine(Design{}, Config{}); err == nil {
		t.Error("empty design must fail")
	}
	d := streamDesign(AccDomain, SimDomain, 0, 0)
	if _, err := NewEngine(d, Config{SimSpeed: -1}); err == nil {
		t.Error("negative speed must fail")
	}
	// A speed whose per-cycle time overflows time.Duration used to wrap
	// negative and panic at the first charge.
	for field, cfg := range map[string]Config{
		"SimSpeed": {SimSpeed: 1e-11},
		"AccSpeed": {AccSpeed: 1e-11},
	} {
		if _, err := NewEngine(d, cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s 1e-11: err = %v, want an error naming %s", field, err, field)
		}
	}
	// A LOB too deep to allocate used to kill the process with a fatal
	// out-of-memory error, and a rollback-variable count whose store
	// price overflows time.Duration panicked at the first snapshot.
	for field, cfg := range map[string]Config{
		"LOBDepth":     {Mode: ALS, LOBDepth: 2000000000},
		"RollbackVars": {Mode: SLA, RollbackVars: 3e15},
	} {
		if _, err := NewEngine(d, cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: err = %v, want an error naming %s", field, err, field)
		}
	}
	bigVars := streamDesign(AccDomain, SimDomain, 0, 0)
	bigVars.Slaves[0].Vars = 3e15
	if _, err := NewEngine(bigVars, Config{Mode: SLA}); err == nil || !strings.Contains(err.Error(), "Vars") {
		t.Errorf("slave Vars 3e15: err = %v, want an error naming Vars", err)
	}
	e, err := NewEngine(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("zero cycles must fail")
	}
}

func TestDesignValidation(t *testing.T) {
	good := streamDesign(AccDomain, SimDomain, 0, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := good
	dup.Slaves = append([]SlaveSpec{}, good.Slaves...)
	dup.Slaves = append(dup.Slaves, SlaveSpec{Name: "dma", Region: bus.Region{Lo: 0x9000, Hi: 0x9100}, New: func() bus.Slave { return ip.NewSRAM("x") }})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate name must fail")
	}
	noGen := good
	noGen.Masters = []MasterSpec{{Name: "m"}}
	if err := noGen.Validate(); err == nil {
		t.Error("missing generator must fail")
	}
}

func TestDomainIDHelpers(t *testing.T) {
	if SimDomain.Other() != AccDomain || AccDomain.Other() != SimDomain {
		t.Fatal("Other() wrong")
	}
	if SimDomain.String() != "sim" || AccDomain.String() != "acc" {
		t.Fatal("String() wrong")
	}
}
