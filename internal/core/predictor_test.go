package core

import (
	"fmt"
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/workload"
)

// quickstartMemoryDesign is examples/quickstart's split (an INCR8 write
// stream on the accelerator into a simulator-side memory) with the
// zero-wait SRAM swapped for a memory slave with the given wait profile.
func quickstartMemoryDesign(first, next int) Design {
	return Design{
		Masters: []MasterSpec{{
			Name: "dma", Domain: AccDomain,
			NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x10000}, true,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			},
		}},
		Slaves: []SlaveSpec{{
			Name: "mem", Domain: SimDomain,
			Region:    bus.Region{Lo: 0, Hi: 0x20000},
			New:       func() bus.Slave { return ip.NewMemory("mem", first, next) },
			WaitFirst: first, WaitNext: next,
		}},
	}
}

// TestRemoteWaitStatesPredictedExactly: a remote memory slave's wait
// states are deterministic, and the leader's wait model runs the same
// countdown, so every HREADY it predicts is right. A model that counted
// a wait cycle twice would predict the beat ready a cycle early and roll
// back on about half its checks.
func TestRemoteWaitStatesPredictedExactly(t *testing.T) {
	for _, prof := range [][2]int{{0, 1}, {1, 1}, {2, 1}, {1, 2}} {
		for _, mode := range []Mode{ALS, Auto} {
			first, next := prof[0], prof[1]
			t.Run(fmt.Sprintf("%v/first=%d_next=%d", mode, first, next), func(t *testing.T) {
				rep := runBoth(t, quickstartMemoryDesign(first, next), Config{Mode: mode}, 20000)
				st := rep.Stats
				if st.Mispredicts != 0 || st.Rollbacks != 0 {
					t.Fatalf("%d mispredicts and %d rollbacks over %d checks, want none",
						st.Mispredicts, st.Rollbacks, st.ChecksTotal)
				}
				if st.RunAheadCycles < rep.Cycles/2 {
					t.Fatalf("only %d of %d cycles ran ahead; the check proves little",
						st.RunAheadCycles, rep.Cycles)
				}
			})
		}
	}
}

// TestLeaderPredictionPure drives the auto-mode multimaster topology
// transition by transition and, at every sync point, asks each domain
// for its prediction twice: both calls must agree and leave the
// predictor's saved state unchanged, so the leader-choice probe and the
// run-ahead's first prediction see the same value.
func TestLeaderPredictionPure(t *testing.T) {
	e, err := NewEngine(multimasterAllocDesign(), Config{Mode: Auto})
	if err != nil {
		t.Fatal(err)
	}
	waitedReplies := 0
	for step := 0; step < 3000; step++ {
		for _, d := range e.domains {
			before := d.pred.SaveInto(nil)
			var a, b amba.PartialState
			ra := d.PredictInto(&a)
			rb := d.PredictInto(&b)
			if ra != rb || a != b {
				t.Fatalf("step %d, %v: PredictInto gave %+v (%q), then %+v (%q)", step, d.ID(), a, ra, b, rb)
			}
			if after := d.pred.SaveInto(nil); !reflect.DeepEqual(before, after) {
				t.Fatalf("step %d, %v: PredictInto moved the predictor state", step, d.ID())
			}
			if ra == DeclineNone && a.HasReply && !a.Reply.Ready {
				waitedReplies++
			}
		}
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	if waitedReplies == 0 {
		t.Fatal("no sync point predicted a remote wait state; the check proves little")
	}
}

// TestPredictorSnapshotRoundTripsRequestModel: the request model's
// low-run history and announced falls, the remote masters' sequencer
// copies (a dropped transfer included) and the remote slaves' timing
// automata are value copies in the predictor snapshot. A restore
// brings back exactly the saved models, and a recycled save allocates
// nothing.
func TestPredictorSnapshotRoundTripsRequestModel(t *testing.T) {
	b := bus.New("sim")
	b.AddExternalMaster("a")
	b.AddMaster(ip.NewTrafficMaster("cpu", workload.NewSequence(), 0))
	b.AddExternalMaster("c")
	mem := b.MapExternalSlave("mem", bus.Region{Lo: 0, Hi: 0x1000})
	p := newRemotePredictor(b, true, map[int]ip.SlaveTiming{mem: ip.NewSlaveTiming(3, 1, ip.Cadence{})})
	var full amba.CycleState
	observe := func(req uint32, n int) {
		for i := 0; i < n; i++ {
			p.Observe(&full, &amba.PartialState{ReqMask: p.remoteReqMask, Req: req})
		}
	}
	// Line 0 repeats a 4-cycle low run, line 2 a 6-cycle one.
	for r := 0; r < 3; r++ {
		observe(0, 4)
		observe(1<<0, 2)
		observe(1<<2, 2)
	}
	observe(0, 2)
	// Master 2 is one beat into an INCR4 write; the memory's first beat
	// has waited once of its three wait states.
	ap := amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true}
	p.seqs[2].Observe(ap, true)
	p.timings[mem].Observe(false)
	// Master 0 requested for a SINGLE and lost the grant on it: its fall
	// is announced and its transfer dropped.
	observe(1<<0, 1)
	if !p.seqs[0].Observe(amba.AddrPhase{Addr: 0x200, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstSingle}, false) {
		t.Fatal("a SINGLE's beat is not final")
	}
	p.req.Fall(0)
	if p.req.Predict()&1 != 0 || p.seqs[0].Loaded() {
		t.Fatal("no fall announced or no transfer dropped; the check proves little")
	}
	want, wantSeqs, wantWait := p.req, [2]ip.Sequencer{p.seqs[0], p.seqs[2]}, p.timings[mem]
	s := p.SaveInto(nil)
	observe(1<<0|1<<2, 3)
	observe(0, 9)
	next, _ := p.seqs[2].Predict()
	p.seqs[2].Observe(next, true)
	p.seqs[0].Observe(ap, true)
	p.timings[mem].Observe(false)
	p.timings[mem].Observe(true)
	if p.req == want || p.seqs[0] == wantSeqs[0] || p.seqs[2] == wantSeqs[1] || p.timings[mem] == wantWait {
		t.Fatal("the observations after the save left a model unchanged; the check proves little")
	}
	p.Restore(s)
	if p.req != want || p.req.Predict()&1 != 0 {
		t.Fatalf("restored request model %+v, saved %+v", p.req, want)
	}
	if got := [2]ip.Sequencer{p.seqs[0], p.seqs[2]}; got != wantSeqs || p.timings[mem] != wantWait {
		t.Fatalf("restored sequencer copies %+v and slave timing %+v, saved %+v and %+v",
			got, p.timings[mem], wantSeqs, wantWait)
	}
	if allocs := testing.AllocsPerRun(100, func() { s = p.SaveInto(s) }); allocs != 0 {
		t.Fatalf("recycled predictor save allocates %v times", allocs)
	}
}

// fixedGapDesign puts an INCR4 write stream with a fixed gap on the
// accelerator (master 0, the highest priority) beside a gapless read
// stream on the simulator, both on zero-wait simulator SRAMs. Under SLA
// the simulator leads through the stream's gaps, where the only remote
// signal that moves is the stream's request line.
func fixedGapDesign(gap int) Design {
	return Design{
		Masters: []MasterSpec{
			{Name: "stream", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x8000}, true,
					amba.BurstIncr4, amba.Size32, 0, gap, 0)
			}},
			{Name: "cpu", Domain: SimDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0x10000, Hi: 0x18000}, false,
					amba.BurstIncr8, amba.Size32, 0, 0, 0)
			}},
		},
		Slaves: []SlaveSpec{
			{Name: "buf", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x8000},
				New: func() bus.Slave { return ip.NewSRAM("buf") }},
			{Name: "mem", Domain: SimDomain, Region: bus.Region{Lo: 0x10000, Hi: 0x18000},
				New: func() bus.Slave { return ip.NewSRAM("mem") }},
		},
	}
}

// eachTransition drives an engine for the given number of committed
// cycles, leader choice by leader choice as the run loop does (without
// its batching, which commits the same cycles). After every transition
// it calls visit with the cycle the transition started at, its LOB
// entries and the index of the entry whose check rolled back, or -1.
// After a rollback the mispredicted entry is the last one the lagger
// committed, and e.laggerOut still holds the lagger's actual
// contribution for it. The engine must inject no faults.
func eachTransition(t testing.TB, e *Engine, cycles int64, visit func(base int64, entries []Entry, failed int)) {
	t.Helper()
	for e.stats.Committed < cycles {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		base, rb := e.stats.Committed, e.stats.Rollbacks
		n, err := e.transition(leader, cycles-base)
		if err != nil {
			t.Fatal(err)
		}
		failed := -1
		if e.stats.Rollbacks > rb {
			failed = int(n) - 1
			if e.lob.Entries()[failed].Pred == e.laggerOut {
				t.Fatalf("cycle %d: rolled back on entry %d, whose prediction matches", base+int64(failed), failed)
			}
		}
		visit(base, e.lob.Entries(), failed)
	}
}

// mispredict is one check that rolled back: the cycle it failed at,
// the leader's prediction and the lagger's actual contribution.
type mispredict struct {
	cycle        int64
	pred, actual amba.PartialState
}

// runMispredicts runs d under cfg for the given cycles and returns the
// engine and every check it rolled back on.
func runMispredicts(t testing.TB, d Design, cfg Config, cycles int64) (*Engine, []mispredict) {
	t.Helper()
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []mispredict
	eachTransition(t, e, cycles, func(base int64, entries []Entry, failed int) {
		if failed >= 0 {
			out = append(out, mispredict{base + int64(failed), entries[failed].Pred, e.laggerOut})
		}
	})
	if int64(len(out)) != e.stats.Rollbacks {
		t.Fatalf("%d mispredicts recorded, %d rollbacks", len(out), e.stats.Rollbacks)
	}
	return e, out
}

// TestFixedGapRequestRisePredicted: once the stream has shown its gap
// twice, the simulator leader predicts every rise of its request line.
// After a rollback the mispredicted entry's prediction is compared with
// the lagger's actual contribution.
func TestFixedGapRequestRisePredicted(t *testing.T) {
	const cycles = 6000
	const streamBit = 1 << 0
	d := fixedGapDesign(5)
	ref, err := RunReference(d, cycles)
	if err != nil {
		t.Fatal(err)
	}
	// The stream's third rise ends its second gap (the first ends the
	// idle stretch before its first burst).
	learned, rises := int64(-1), 0
	for k := 1; k < len(ref) && learned < 0; k++ {
		if ref[k].Req&streamBit != 0 && ref[k-1].Req&streamBit == 0 {
			if rises++; rises == 3 {
				learned = int64(k)
			}
		}
	}
	if learned < 0 {
		t.Fatal("the stream never rose three times")
	}

	e, err := NewEngine(d, Config{Mode: SLA})
	if err != nil {
		t.Fatal(err)
	}
	predictedRises := 0
	eachTransition(t, e, cycles, func(base int64, entries []Entry, failed int) {
		checked := len(entries) - 1 // the final entry carries no prediction
		if failed >= 0 {
			pred, actual := entries[failed].Pred, e.laggerOut
			if base+int64(failed) > learned && (pred.Req^actual.Req)&streamBit != 0 {
				t.Fatalf("cycle %d (stream gap learned by cycle %d): predicted request %#x, stream drove %#x",
					base+int64(failed), learned, pred.Req, actual.Req)
			}
			checked = failed
		}
		for j := 1; j < checked; j++ {
			if entries[j].Pred.Req&streamBit != 0 && entries[j-1].Pred.Req&streamBit == 0 {
				predictedRises++
			}
		}
	})
	if predictedRises < 50 {
		t.Fatalf("only %d request rises were predicted inside a run-ahead; the check proves little", predictedRises)
	}
}

// multimasterDesign is examples/multimaster's design: an INCR8 write
// stream and an INCR4 DMA copy on the accelerator beside a random CPU
// on the simulator, over a simulator DRAM, an accelerator scratchpad
// and an accelerator timer.
func multimasterDesign() Design {
	return Design{
		Masters: []MasterSpec{
			{Name: "vdma", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x8000}, true,
					amba.BurstIncr8, amba.Size32, 0, 4, 0)
			}},
			{Name: "cpu", Domain: SimDomain, NewGen: func() ip.Generator {
				return workload.NewCPU([]workload.Window{{Lo: 0, Hi: 0x8000}, {Lo: 0x10000, Hi: 0x12000}},
					0.6, 5, 0, 2024)
			}},
			{Name: "pdma", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewDMACopy(workload.Window{Lo: 0, Hi: 0x4000},
					workload.Window{Lo: 0x10000, Hi: 0x11000}, amba.BurstIncr4, 6, 0)
			}},
		},
		Slaves: []SlaveSpec{
			{Name: "dram", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x10000},
				New:       func() bus.Slave { return ip.NewMemory("dram", 2, 1) },
				WaitFirst: 2, WaitNext: 1},
			{Name: "spm", Domain: AccDomain, Region: bus.Region{Lo: 0x10000, Hi: 0x14000},
				New: func() bus.Slave { return ip.NewSRAM("spm") }},
			{Name: "timer", Domain: AccDomain, Region: bus.Region{Lo: 0x20000, Hi: 0x20100},
				New:     func() bus.Slave { return ip.NewIRQPeriph("timer", 0x1) },
				IRQMask: 0x1, WaitFirst: 1, WaitNext: 1},
		},
	}
}

// fallDesign puts an INCR4 read stream with gap 5 on the accelerator
// (master 0) beside an INCR4 write stream with gap 7 on the simulator,
// each on its own simulator SRAM. The reader drops its request on the
// cycle after each burst's final address phase.
func fallDesign() Design {
	return Design{
		Masters: []MasterSpec{
			{Name: "reader", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x8000}, false,
					amba.BurstIncr4, amba.Size32, 0, 5, 0)
			}},
			{Name: "writer", Domain: SimDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0x10000, Hi: 0x18000}, true,
					amba.BurstIncr4, amba.Size32, 0, 7, 0)
			}},
		},
		Slaves: []SlaveSpec{
			{Name: "buf", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x8000},
				New: func() bus.Slave { return ip.NewSRAM("buf") }},
			{Name: "mem", Domain: SimDomain, Region: bus.Region{Lo: 0x10000, Hi: 0x18000},
				New: func() bus.Slave { return ip.NewSRAM("mem") }},
		},
	}
}

// TestRequestFallAfterFinalBeatPredicted: the leader predicts a remote
// master's request fall on the cycle after its fixed-length burst's
// final address phase. Under SLA the simulator leads through the
// reader's bursts; under auto both domains lead, and the writer also
// loses the grant on final beats. At model revision 4, last-value
// prediction missed every fall: 2,729 rollbacks under SLA and 3,412
// under auto, against 1 and 4 now.
func TestRequestFallAfterFinalBeatPredicted(t *testing.T) {
	const cycles = 30000
	ref, err := RunReference(fallDesign(), cycles)
	if err != nil {
		t.Fatal(err)
	}
	falls := 0
	for k := 1; k < len(ref); k++ {
		if ref[k-1].Req&^ref[k].Req != 0 {
			falls++
		}
	}
	if falls < 2000 {
		t.Fatalf("only %d request falls in %d cycles; the check proves little", falls, cycles)
	}
	for _, mode := range []Mode{SLA, Auto} {
		e, mis := runMispredicts(t, fallDesign(), Config{Mode: mode}, cycles)
		for _, m := range mis {
			if fell := ref[m.cycle-1].Req &^ m.actual.Req; fell&m.pred.Req != 0 {
				t.Fatalf("%v, cycle %d: predicted request %#x, the lagger's masters drove %#x after %#x",
					mode, m.cycle, m.pred.Req, m.actual.Req, ref[m.cycle-1].Req)
			}
		}
		if st := e.stats; st.Rollbacks > 8 || st.RunAheadCycles < cycles/2 {
			t.Fatalf("%v: %d rollbacks and %d run-ahead cycles in %d, want at most 8 and at least half",
				mode, st.Rollbacks, st.RunAheadCycles, cycles)
		}
	}
}

// TestTwoCycleResponseSecondCyclePredicted: under ALS the accelerator
// leads examples/quickstart's INCR8 write stream into a simulator slave
// that answers with two-cycle responses: a memory that retries every
// fourth beat, and an error slave. The first cycle of each response is
// a surprise, but the second follows from it, so the run rolls back at
// most once per response. At model revision 4 it rolled back on both
// cycles: 3,477 and 13,332 times, against 1,738 and 6,666 now.
func TestTwoCycleResponseSecondCyclePredicted(t *testing.T) {
	const cycles = 20000
	slaves := []struct {
		name  string
		new   func() bus.Slave
		waits int
	}{
		{"retry", func() bus.Slave { return ip.NewRetryMemory("mem", 1, 4) }, 1},
		{"error", func() bus.Slave { return ip.NewErrorSlave("mem") }, 0},
	}
	for _, s := range slaves {
		d := quickstartMemoryDesign(s.waits, s.waits)
		d.Slaves[0].New = s.new
		ref, err := RunReference(d, cycles)
		if err != nil {
			t.Fatal(err)
		}
		responses := int64(0)
		for _, c := range ref {
			if !c.Reply.Ready && c.Reply.Resp != amba.RespOkay {
				responses++
			}
		}
		if responses < 1000 {
			t.Fatalf("%s: only %d two-cycle responses; the check proves little", s.name, responses)
		}
		e, mis := runMispredicts(t, d, Config{Mode: ALS}, cycles)
		for _, m := range mis {
			if r := m.actual.Reply; m.actual.HasReply && r.Ready && r.Resp != amba.RespOkay {
				t.Fatalf("%s, cycle %d: predicted %v for the second cycle of a two-cycle response, the slave drove %v",
					s.name, m.cycle, m.pred.Reply, r)
			}
		}
		if e.stats.Rollbacks > responses {
			t.Fatalf("%s: %d rollbacks for %d two-cycle responses, want at most one each", s.name, e.stats.Rollbacks, responses)
		}
	}
}

// cadenceDesign is the census design of a remote slave's RETRY or
// SPLIT cadence: an INCR4 write stream with gap 5 on the accelerator
// into a simulator memory that waits once per beat and answers the
// first attempt of every fourth beat with a two-cycle RETRY, or with a
// SPLIT whose HSPLITx release comes 12 cycles later. The slave spec
// declares the cadence, as spec.Compile does from retry_every and
// split_every.
func cadenceDesign(resp amba.Resp) Design {
	slave := SlaveSpec{Name: "mem", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x8000},
		WaitFirst: 1, WaitNext: 1}
	if resp == amba.RespSplit {
		slave.New = func() bus.Slave { return ip.NewSplitMemory("mem", 1, 4, 12) }
		slave.Cadence = ip.SplitEvery(4)
	} else {
		slave.New = func() bus.Slave { return ip.NewRetryMemory("mem", 1, 4) }
		slave.Cadence = ip.RetryEvery(4)
	}
	return Design{
		Masters: []MasterSpec{{Name: "stream", Domain: AccDomain, NewGen: func() ip.Generator {
			return workload.NewStream(workload.Window{Lo: 0, Hi: 0x8000}, true,
				amba.BurstIncr4, amba.Size32, 0, 5, 0)
		}}},
		Slaves: []SlaveSpec{slave},
	}
}

// TestRemoteCadencePredicted: the leader runs the remote slave's timing
// automaton with its declared cadence, so it predicts the first cycle
// of every RETRY or SPLIT, not only the second. At model revision 5 the
// first cycles cost ALS and auto alike 1,176 rollbacks on the RETRY
// memory and 1,333 on the SPLIT memory, against 0 and 1 now.
func TestRemoteCadencePredicted(t *testing.T) {
	const cycles = 20000
	for _, resp := range []amba.Resp{amba.RespRetry, amba.RespSplit} {
		for _, mode := range []Mode{ALS, Auto} {
			t.Run(fmt.Sprintf("%v/%v", resp, mode), func(t *testing.T) {
				rep := runBoth(t, cadenceDesign(resp), Config{Mode: mode}, cycles)
				responses := 0
				for _, c := range rep.Trace {
					if !c.Reply.Ready && c.Reply.Resp == resp {
						responses++
					}
				}
				if responses < 500 {
					t.Fatalf("only %d two-cycle responses; the check proves little", responses)
				}
				if st := rep.Stats; st.Rollbacks > 2 {
					t.Fatalf("%d rollbacks for %d two-cycle responses, want at most 2", st.Rollbacks, responses)
				}
			})
		}
	}
}

// TestRegrantAfterFinalBeatDeclines: on examples/multimaster in auto
// mode, a remote master that lost the grant on its final beat opens a
// new burst with a NONSEQ when it is granted again, so the leader
// declines there instead of predicting IDLE. At model revision 4 that
// IDLE cost 161 of the run's 875 rollbacks.
func TestRegrantAfterFinalBeatDeclines(t *testing.T) {
	e, mis := runMispredicts(t, multimasterDesign(), Config{Mode: Auto}, 30000)
	for _, m := range mis {
		if m.pred.HasAP && m.pred.AP.Trans == amba.TransIdle && m.actual.AP.Trans == amba.TransNonSeq {
			t.Fatalf("cycle %d: predicted IDLE, the granted master drove %v", m.cycle, m.actual.AP)
		}
	}
	if e.stats.Declines[DeclineBurstStart] == 0 {
		t.Fatal("no leader declined at a remote burst start; the check proves little")
	}
}
