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
// low-run history, the remote masters' burst trackers and the remote
// slaves' wait models are value copies in the predictor snapshot. A
// restore brings back exactly the saved models, and a recycled save
// allocates nothing.
func TestPredictorSnapshotRoundTripsRequestModel(t *testing.T) {
	b := bus.New("sim")
	b.AddExternalMaster("a")
	b.AddMaster(ip.NewTrafficMaster("cpu", workload.NewSequence(), 0))
	b.AddExternalMaster("c")
	mem := b.MapExternalSlave("mem", bus.Region{Lo: 0, Hi: 0x1000})
	p := newRemotePredictor(b, true, map[int][2]int{mem: {3, 1}})
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
	p.trackers[2].Observe(ap)
	p.waits[mem].Observe(false)
	want, wantTracker, wantWait := p.req, p.trackers[2], p.waits[mem]
	s := p.SaveInto(nil)
	observe(1<<0|1<<2, 3)
	observe(0, 9)
	next, _ := p.trackers[2].Predict()
	p.trackers[2].Observe(next)
	p.waits[mem].Observe(false)
	p.waits[mem].Observe(true)
	if p.req == want || p.trackers[2] == wantTracker || p.waits[mem] == wantWait {
		t.Fatal("the observations after the save left a model unchanged; the check proves little")
	}
	p.Restore(s)
	if p.req != want {
		t.Fatalf("restored request model %+v, saved %+v", p.req, want)
	}
	if p.trackers[2] != wantTracker || p.waits[mem] != wantWait {
		t.Fatalf("restored tracker %+v and wait model %+v, saved %+v and %+v",
			p.trackers[2], p.waits[mem], wantTracker, wantWait)
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

// TestFixedGapRequestRisePredicted: once the stream has shown its gap
// twice, the simulator leader predicts every rise of its request line.
// The engine is driven transition by transition; after a rollback the
// mispredicted entry is the last one the lagger committed, and its
// prediction is compared with the lagger's actual contribution.
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
		entries := e.lob.Entries()
		checked := len(entries) - 1 // the final entry carries no prediction
		if e.stats.Rollbacks > rb {
			i := int(n) - 1
			pred, actual := entries[i].Pred, e.laggerOut
			if pred == actual {
				t.Fatalf("cycle %d: rolled back on entry %d, whose prediction matches", base+int64(i), i)
			}
			if base+int64(i) > learned && (pred.Req^actual.Req)&streamBit != 0 {
				t.Fatalf("cycle %d (stream gap learned by cycle %d): predicted request %#x, stream drove %#x",
					base+int64(i), learned, pred.Req, actual.Req)
			}
			checked = i
		}
		for j := 1; j < checked; j++ {
			if entries[j].Pred.Req&streamBit != 0 && entries[j-1].Pred.Req&streamBit == 0 {
				predictedRises++
			}
		}
	}
	if predictedRises < 50 {
		t.Fatalf("only %d request rises were predicted inside a run-ahead; the check proves little", predictedRises)
	}
}
