package ip

import (
	"math"
	"testing"

	"coemu/internal/amba"
)

// ctrlWrite is a 32-bit write address phase for a peripheral register.
func ctrlWrite(addr amba.Addr) amba.AddrPhase {
	return amba.AddrPhase{Addr: addr, Write: true, Size: amba.Size32, Trans: amba.TransNonSeq}
}

// TestIRQPeriphQuiescence pins the Quiescible contract on the
// countdown peripheral: SkipQuiescent(n) must match n Ticks for every
// n within the advertised bound, and the bound must stop exactly one
// tick short of the interrupt raise.
func TestIRQPeriphQuiescence(t *testing.T) {
	seq := NewIRQPeriph("t", 0x1)
	bat := NewIRQPeriph("t", 0x1)
	if seq.QuiescentFor() != math.MaxInt64 {
		t.Fatal("idle countdown should be quiescent forever")
	}
	for _, p := range []*IRQPeriph{seq, bat} {
		p.WriteCommit(ctrlWrite(PeriphCtrl), 7) // arm a 7-cycle countdown
	}
	q := bat.QuiescentFor()
	if q != 7 {
		t.Fatalf("QuiescentFor = %d, want 7", q)
	}
	for i := int64(0); i < q; i++ {
		seq.Tick(i)
	}
	bat.SkipQuiescent(q)
	if *seq != *bat {
		t.Fatalf("SkipQuiescent diverged: seq %+v, batch %+v", *seq, *bat)
	}
	if bat.IRQ() != 0 {
		t.Fatal("interrupt raised within the quiescent span")
	}
	bat.Tick(q) // the first non-quiescent tick raises the line
	if bat.IRQ() != 0x1 {
		t.Fatal("interrupt not raised on the tick after the span")
	}
}

// TestSplitMemoryQuiescence pins the same contract on the split
// release countdown.
func TestSplitMemoryQuiescence(t *testing.T) {
	seq := NewSplitMemory("s", 0, 4, 9)
	bat := NewSplitMemory("s", 0, 4, 9)
	if seq.QuiescentFor() != math.MaxInt64 {
		t.Fatal("unarmed release should be quiescent forever")
	}
	seq.NotifySplit(2)
	bat.NotifySplit(2)
	q := bat.QuiescentFor()
	if q != 9 {
		t.Fatalf("QuiescentFor = %d, want 9", q)
	}
	for i := int64(0); i < q; i++ {
		seq.Tick(i)
	}
	bat.SkipQuiescent(q)
	if seq.countdown != bat.countdown || seq.release != bat.release {
		t.Fatalf("SkipQuiescent diverged: seq (%d,%x), batch (%d,%x)",
			seq.countdown, seq.release, bat.countdown, bat.release)
	}
	bat.Tick(q)
	if bat.QuiescentFor() != 0 {
		t.Fatal("pending release must pin the bound to 0")
	}
	if bat.SplitRelease() != 1<<2 {
		t.Fatal("release line not raised after the span")
	}
}

// listGen replays a fixed transfer list (a minimal in-package stand-in
// for workload.Sequence, which would import-cycle here).
type listGen struct {
	xfers []Xfer
	i     int
}

func (g *listGen) Next() (Xfer, bool) {
	if g.i >= len(g.xfers) {
		return Xfer{}, false
	}
	x := g.xfers[g.i]
	g.i++
	return x, true
}

// TestTrafficMasterQuiescentCycles pins the master-side ground truth:
// the bound equals the remaining inter-transfer gap and an exhausted
// generator is idle forever.
func TestTrafficMasterQuiescentCycles(t *testing.T) {
	m := NewTrafficMaster("m", &listGen{xfers: []Xfer{{Addr: 0, Write: true, Gap: 5}}}, 0)
	if got := m.QuiescentCycles(); got != 5 {
		t.Fatalf("QuiescentCycles = %d, want the 5-cycle gap", got)
	}
	m.SkipIdle(3)
	if got := m.QuiescentCycles(); got != 2 {
		t.Fatalf("QuiescentCycles after SkipIdle(3) = %d, want 2", got)
	}

	done := NewTrafficMaster("d", &listGen{}, 0)
	if got := done.QuiescentCycles(); got != math.MaxInt64 {
		t.Fatalf("exhausted generator: QuiescentCycles = %d, want forever", got)
	}
}

// TestRegisterSlavesSaveInPlace pins the in-place snapshot protocol on
// the IRQ peripheral and the error slave: SaveInto recycles its
// previous buffer without allocating, and Restore rewinds every
// register.
func TestRegisterSlavesSaveInPlace(t *testing.T) {
	p := NewIRQPeriph("p", 0x1)
	p.WriteCommit(ctrlWrite(PeriphCtrl), 3)
	p.WriteCommit(ctrlWrite(PeriphScratch), 0x55)
	e := NewErrorSlave("e")
	e.Respond(amba.AddrPhase{})
	wantP, wantE := *p, *e
	snapP, snapE := p.SaveInto(nil), e.SaveInto(nil)
	allocs := testing.AllocsPerRun(10, func() {
		snapP = p.SaveInto(snapP)
		snapE = e.SaveInto(snapE)
	})
	if allocs != 0 {
		t.Fatalf("recycled saves allocated %.1f objects, want 0", allocs)
	}
	for i := int64(0); i < 5; i++ {
		p.Tick(i)
	}
	p.WriteCommit(ctrlWrite(PeriphScratch), 0xAA)
	e.Commit(false)
	e.Commit(true)
	e.Respond(amba.AddrPhase{})
	if *p == wantP || *e == wantE {
		t.Fatal("the mutations did not move the slaves; the restore check would prove nothing")
	}
	p.Restore(snapP)
	e.Restore(snapE)
	if *p != wantP {
		t.Fatalf("peripheral restored to %+v, want %+v", *p, wantP)
	}
	if *e != wantE {
		t.Fatalf("error slave restored to %+v, want %+v", *e, wantE)
	}
}
