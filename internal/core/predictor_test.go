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
