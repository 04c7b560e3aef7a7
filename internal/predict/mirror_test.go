package predict_test

import (
	"fmt"
	"strings"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/predict"
	"coemu/internal/workload"
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
// model's value unchanged.
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
				before := wm
				pred := wm.Predict()
				if again := wm.Predict(); again != pred {
					t.Fatalf("cycle %d: Predict gave %v, then %v", cycle, pred, again)
				}
				if wm != before {
					t.Fatalf("cycle %d: Predict moved the model state from %+v to %+v", cycle, before, wm)
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

// A master that loses the grant with beats left rebuilds the remainder
// on its next grant. These tests drive an ip.TrafficMaster through its
// bus.Master methods, exactly as the bus does, next to a BurstTracker
// fed the way the leader's predictor feeds it: Observe on ready cycles
// while the master is granted, and Cut when the grant then moves away.

// rebuildCounts tallies the cycles a rebuild mirror checked.
type rebuildCounts struct {
	regrants int // first beats of a rebuilt remainder
	wraps    int // fresh NONSEQs at a rebuilt WRAP burst's wrap point
	beats    int // every beat of a rebuilt remainder, the above included
}

// checkRebuildMirror runs a master fed xfers (all OKAY, no BUSY) under
// sched, one letter per cycle: 'g' is a ready cycle after which the
// master is granted, 'x' a ready cycle after which it is not, and 'w' a
// wait state (a ready cycle that keeps the grant when no beat is in the
// data phase). On every cycle Predict must give the same answer twice
// and leave the tracker's value unchanged; on the regrant cycle
// and on each beat of a rebuilt remainder it must confidently predict
// the master's address phase.
func checkRebuildMirror(t testing.TB, tr *predict.BurstTracker, xfers []ip.Xfer, sched string) rebuildCounts {
	t.Helper()
	m := ip.NewTrafficMaster("m", workload.NewSequence(xfers...), 0)
	var n rebuildCounts
	granted, lastReady, dataValid := false, true, false
	// The test's own account of the master: transfer xi has issued
	// beats, and was cut with beats left (rebuilding); regrant marks
	// the first beat after a cut.
	xi, issued, rebuilding, regrant := 0, 0, false, false
	for cycle, c := range sched {
		before := *tr
		pred, ok := tr.Predict()
		if again, okAgain := tr.Predict(); again != pred || okAgain != ok {
			t.Fatalf("cycle %d: Predict gave %v (%v), then %v (%v)", cycle, pred, ok, again, okAgain)
		}
		if *tr != before {
			t.Fatalf("cycle %d: Predict moved the tracker state from %+v to %+v", cycle, before, *tr)
		}

		var d bus.MasterDrive
		m.Drive(&d)
		if granted && lastReady && rebuilding {
			if !ok || pred != d.AP {
				t.Fatalf("cycle %d of %q, transfer %d beat %d: predicted %v (confident %v), master drove %v",
					cycle, sched, xi, issued, pred, ok, d.AP)
			}
			n.beats++
			switch {
			case regrant:
				n.regrants++
				regrant = false
			case d.AP.Trans == amba.TransNonSeq:
				n.wraps++
			}
		}

		ready := c != 'w' || !dataValid
		grantNext := granted
		if c != 'w' {
			grantNext = c == 'g'
		}
		m.Commit(bus.MasterFeedback{Granted: granted, GrantNext: grantNext, Ready: ready, OwnsData: dataValid, Resp: amba.RespOkay})
		if granted && ready {
			tr.Observe(d.AP)
			if !grantNext {
				tr.Cut()
			}
		}

		if ready {
			dataValid = granted && d.AP.Trans.Active()
			if dataValid {
				if issued++; issued == xfers[xi].Beats() {
					xi, issued, rebuilding, regrant = xi+1, 0, false, false
				}
			}
			if granted && !grantNext && issued > 0 {
				rebuilding, regrant = true, true
			}
		}
		lastReady = ready
		granted = grantNext
	}
	return n
}

// rebuildBursts are the burst types a rebuild can cut: every
// multi-beat type of the AHB protocol.
var rebuildBursts = [...]amba.Burst{
	amba.BurstIncr, amba.BurstIncr4, amba.BurstIncr8, amba.BurstIncr16,
	amba.BurstWrap4, amba.BurstWrap8, amba.BurstWrap16,
}

// TestBurstRebuildMirror cuts one burst of each type twice, with wait
// states around the cuts: after its first beat, and after the second
// beat of the rebuilt remainder. Each WRAP burst starts two beats below
// its wrap boundary, so the remainder reaches the wrap point on its
// second beat.
func TestBurstRebuildMirror(t *testing.T) {
	sched := "gxwxxggxwxg" + strings.Repeat("g", 24)
	for _, burst := range rebuildBursts {
		for _, write := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/write=%v", burst, write), func(t *testing.T) {
				x := ip.Xfer{Addr: 0x1000, Write: write, Size: amba.Size32, Burst: burst, Len: 9}
				if burst.Wrapping() {
					x.Addr += amba.Addr(amba.WrapBoundaryBytes(burst, amba.Size32) - 2*4)
				}
				n := checkRebuildMirror(t, &predict.BurstTracker{}, []ip.Xfer{x, x}, sched)
				if n.regrants != 2 {
					t.Fatalf("%d regrant cycles checked, want 2 (%+v)", n.regrants, n)
				}
				if burst.Wrapping() && n.wraps != 1 {
					t.Fatalf("%d wrap points checked, want 1 (%+v)", n.wraps, n)
				}
				if want := x.Beats() - 1; n.beats != want {
					t.Fatalf("%d rebuilt beats checked, want %d (%+v)", n.beats, want, n)
				}
			})
		}
	}
}

// FuzzBurstRebuildMirror decodes a transfer list and a grant/wait
// schedule from the fuzzer's bytes and runs the rebuild mirror over
// them. The first byte is reserved and ignored, which keeps the seeds
// decoding to the transfers they were written for.
func FuzzBurstRebuildMirror(f *testing.F) {
	f.Add([]byte{0, 4, 0x00, 0x41, 0x24, 0x10, 0x63, 0x08, 0x05, 0x00, 0x36, 0xe2, 0x2d, 0x18, 0x00})
	f.Add([]byte{2, 1, 0x1d, 0x2c, 0x6c, 0xc9, 0x26, 0x91, 0x00})
	f.Add([]byte{3, 2, 0x16, 0xf0, 0x3a, 0x00, 0x94, 0x55, 0x2b, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		tr := &predict.BurstTracker{}
		nx := 1 + int(b[1]%4)
		b = b[2:]
		if len(b) < 2*nx {
			return
		}
		xfers := make([]ip.Xfer, nx)
		for i := range xfers {
			c0, c1 := b[2*i], b[2*i+1]
			xfers[i] = ip.Xfer{
				Addr:  0x1000 + amba.Addr(c0>>3)*4,
				Write: c1&1 != 0,
				Size:  amba.Size32,
				Burst: rebuildBursts[int(c0)%len(rebuildBursts)],
				Len:   1 + int(c1>>3)&15,
				Gap:   int(c1>>1) & 3,
			}
		}
		// Two bits per cycle: mostly granted, with grant losses and
		// wait states.
		letters := [4]byte{'g', 'g', 'x', 'w'}
		var sched []byte
		for _, c := range b[2*nx:] {
			for k := 0; k < 4; k++ {
				sched = append(sched, letters[(c>>(2*k))&3])
			}
		}
		checkRebuildMirror(t, tr, xfers, string(sched))
	})
}
