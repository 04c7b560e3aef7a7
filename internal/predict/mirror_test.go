package predict_test

import (
	"fmt"
	"reflect"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/ip"
	"coemu/internal/predict"
)

// The wait model is the leader's copy of a remote memory slave's wait
// countdown. These tests drive an ip.Memory through its bus.Slave
// methods, exactly as the bus does, next to a WaitModel with the same
// profile fed the way the engine feeds it: Predict before the cycle,
// Observe after it.

// xfer is one transfer of a mirror schedule: a burst of beats, then
// gap idle cycles in which no beat is addressed to the memory.
type xfer struct {
	burst amba.Burst
	write bool
	gap   int
}

// checkMirror runs sched against a memory and a wait model with profile
// (first, next). On every data-phase cycle Predict must equal the
// memory's HREADY, give the same answer when asked again, and leave the
// model's saved state unchanged.
func checkMirror(t testing.TB, first, next int, sched []xfer) {
	t.Helper()
	mem := ip.NewMemory("mem", first, next)
	wm := predict.NewWaitModel(first, next)
	addr := amba.Addr(0x100)
	cycle := 0
	for i, x := range sched {
		ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: x.burst, Write: x.write}
		for beat := 0; beat < x.burst.Beats(); beat++ {
			for ready := false; !ready; cycle++ {
				before := wm.SaveInto(nil)
				pred := wm.Predict()
				if again := wm.Predict(); again != pred {
					t.Fatalf("cycle %d: Predict gave %v, then %v", cycle, pred, again)
				}
				if after := wm.SaveInto(nil); !reflect.DeepEqual(before, after) {
					t.Fatalf("cycle %d: Predict moved the model state from %+v to %+v", cycle, before, after)
				}
				reply := mem.Respond(ap)
				ready = reply.Ready
				if pred != ready {
					t.Fatalf("profile (%d,%d), transfer %d (%v write=%v), beat %d, cycle %d: predicted HREADY %v, memory drove %v",
						first, next, i, x.burst, x.write, beat, cycle, pred, ready)
				}
				if ready && ap.Write {
					mem.WriteCommit(ap, amba.Word(cycle))
				}
				mem.Commit(ready)
				wm.Observe(ready)
			}
			ap.Trans = amba.TransSeq
			ap.Addr = amba.NextAddr(ap.Addr, ap.Size, ap.Burst)
		}
		addr = ap.Addr
		cycle += x.gap
	}
}

func TestWaitModelMatchesMemory(t *testing.T) {
	sched := []xfer{
		{amba.BurstSingle, true, 0},
		{amba.BurstSingle, false, 2},
		{amba.BurstIncr4, true, 0},
		{amba.BurstIncr4, true, 1},
		{amba.BurstIncr8, false, 0},
		{amba.BurstIncr8, true, 3},
		{amba.BurstSingle, true, 1},
		{amba.BurstIncr4, false, 0},
		{amba.BurstIncr8, true, 0},
	}
	for first := 0; first <= 3; first++ {
		for next := 0; next <= 3; next++ {
			t.Run(fmt.Sprintf("first=%d_next=%d", first, next), func(t *testing.T) {
				checkMirror(t, first, next, sched)
			})
		}
	}
}

// FuzzWaitModelMirror decodes a profile and a transfer schedule from
// the fuzzer's bytes and runs the mirror oracle over them.
func FuzzWaitModelMirror(f *testing.F) {
	f.Add([]byte{2, 1, 0x01, 0x0a, 0x06, 0x13})
	f.Add([]byte{0, 3, 0x02, 0x02, 0x1c})
	f.Add([]byte{3, 0, 0x00, 0x18, 0x05})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		first, next := int(b[0]%4), int(b[1]%4)
		bursts := [4]amba.Burst{amba.BurstSingle, amba.BurstIncr4, amba.BurstIncr8, amba.BurstSingle}
		sched := make([]xfer, 0, len(b)-2)
		for _, c := range b[2:] {
			sched = append(sched, xfer{burst: bursts[c&3], write: c&4 != 0, gap: int(c>>3) & 3})
		}
		checkMirror(t, first, next, sched)
	})
}
