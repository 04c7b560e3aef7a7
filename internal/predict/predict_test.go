package predict

import (
	"testing"

	"coemu/internal/amba"
)

func TestLastValue(t *testing.T) {
	var l LastValue
	if l.Predict() != 0 {
		t.Fatal("initial prediction must be 0")
	}
	l.Observe(0b101)
	if l.Predict() != 0b101 {
		t.Fatal("last value not tracked")
	}
	s := l
	l.Observe(0b111)
	l = s
	if l.Predict() != 0b101 {
		t.Fatal("restore failed")
	}
}

func TestBurstTrackerPredictsSeqChain(t *testing.T) {
	var b BurstTracker
	ap := amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true}
	b.Observe(ap)
	for i := 1; i < 4; i++ {
		pred, ok := b.Predict()
		if !ok {
			t.Fatalf("no prediction at beat %d", i)
		}
		want := amba.Addr(0x100 + 4*i)
		if pred.Trans != amba.TransSeq || pred.Addr != want {
			t.Fatalf("beat %d predicted %v, want SEQ@%x", i, pred, want)
		}
		if !pred.Write || pred.Burst != amba.BurstIncr4 {
			t.Fatalf("control not held: %v", pred)
		}
		b.Observe(pred)
	}
	// Burst exhausted: tracker predicts IDLE.
	pred, ok := b.Predict()
	if !ok || !pred.Idle() {
		t.Fatalf("after burst end: pred=%v ok=%v, want IDLE", pred, ok)
	}
}

func TestBurstTrackerWrap(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x3c, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstWrap4})
	pred, ok := b.Predict()
	if !ok || pred.Addr != 0x30 {
		t.Fatalf("wrap prediction %v ok=%v, want 0x30", pred, ok)
	}
}

func TestBurstTrackerDeclinesWithoutContext(t *testing.T) {
	var b BurstTracker
	if _, ok := b.Predict(); ok {
		t.Fatal("fresh tracker must decline")
	}
	b.Observe(amba.AddrPhase{}) // IDLE
	if _, ok := b.Predict(); ok {
		t.Fatal("idle master must decline")
	}
}

// observeBurst feeds a full fixed burst starting at addr.
func observeBurst(t *BurstTracker, addr amba.Addr, burst amba.Burst) {
	ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: burst, Write: true}
	t.Observe(ap)
	for i := 1; i < burst.Beats(); i++ {
		ap.Trans = amba.TransSeq
		ap.Addr = amba.NextAddr(ap.Addr, ap.Size, ap.Burst)
		t.Observe(ap)
	}
}

func TestPredictStartsDisabledStaysPaperFaithful(t *testing.T) {
	var tr BurstTracker
	observeBurst(&tr, 0x100, amba.BurstIncr8)
	observeBurst(&tr, 0x120, amba.BurstIncr8)
	ap, ok := tr.Predict()
	if !ok || !ap.Idle() {
		t.Fatalf("paper-faithful tracker must predict IDLE at burst end, got %v ok=%v", ap, ok)
	}
	tr.Observe(amba.AddrPhase{})
	if _, ok := tr.Predict(); ok {
		t.Fatal("paper-faithful tracker must decline for an idle master")
	}
}

func TestBurstTrackerIncrUnbounded(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x0, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr})
	for i := 1; i <= 20; i++ {
		pred, ok := b.Predict()
		if !ok || pred.Addr != amba.Addr(4*i) {
			t.Fatalf("INCR beat %d: %v ok=%v", i, pred, ok)
		}
		b.Observe(pred)
	}
}

// TestBurstTrackerFinal: Final holds from the observed final beat of a
// fixed-length burst until the next observation, and never for an INCR
// burst or mid-burst.
func TestBurstTrackerFinal(t *testing.T) {
	for _, burst := range []amba.Burst{amba.BurstSingle, amba.BurstIncr4, amba.BurstWrap8, amba.BurstIncr16} {
		var b BurstTracker
		ap := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: burst}
		for beat := 1; beat <= burst.Beats(); beat++ {
			b.Observe(ap)
			if got, want := b.Final(), beat == burst.Beats(); got != want {
				t.Fatalf("%v beat %d: Final %v, want %v", burst, beat, got, want)
			}
			ap, _ = b.Predict()
		}
		b.Observe(amba.AddrPhase{})
		if b.Final() {
			t.Fatalf("%v: Final after an IDLE", burst)
		}
	}
	var b BurstTracker
	ap := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr}
	for beat := 0; beat < 20; beat++ {
		b.Observe(ap)
		if b.Final() {
			t.Fatalf("INCR beat %d: Final", beat)
		}
		ap, _ = b.Predict()
	}
}

// TestBurstTrackerCutOnFinalBeat: a master that loses the grant on its
// final beat starts a new burst when it is granted again, so Cut drops
// the burst context exactly as one idle observation does, and the
// tracker declines instead of predicting IDLE. A cut with beats left
// keeps predicting the rebuild.
func TestBurstTrackerCutOnFinalBeat(t *testing.T) {
	var b BurstTracker
	observeBurst(&b, 0x100, amba.BurstIncr4)
	idle := b
	idle.Observe(amba.AddrPhase{})
	b.Cut()
	if b != idle {
		t.Fatalf("Cut on the final beat left %+v, one idle observation %+v", b.st, idle.st)
	}
	if ap, ok := b.Predict(); ok {
		t.Fatalf("regrant after a cut on the final beat: predicted %v, want a decline", ap)
	}

	b = BurstTracker{}
	b.Observe(amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4})
	b.Cut()
	if ap, ok := b.Predict(); !ok || ap.Trans != amba.TransNonSeq || ap.Addr != 0x104 || ap.Burst != amba.BurstIncr {
		t.Fatalf("regrant after a cut with beats left: predicted %v (confident %v), want the INCR rebuild at 0x104", ap, ok)
	}
}

// TestBurstTrackerSnapshot: a struct copy is a snapshot, mid-burst, at
// a final beat (a pending request fall) and after a cut on the final
// beat (a dropped context), and taking one allocates nothing.
func TestBurstTrackerSnapshot(t *testing.T) {
	var b BurstTracker
	b.Observe(amba.AddrPhase{Addr: 0x10, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr8})
	s := b
	p1, _ := b.Predict()
	b.Observe(p1)
	b = s
	p2, _ := b.Predict()
	if p1 != p2 {
		t.Fatal("snapshot replay diverged")
	}

	var final BurstTracker
	observeBurst(&final, 0x100, amba.BurstWrap4)
	dropped := final
	dropped.Cut()
	for name, want := range map[string]BurstTracker{"final beat": final, "dropped context": dropped} {
		b = want
		s = b
		b.Observe(amba.AddrPhase{Addr: 0x200, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4})
		if b == want {
			t.Fatalf("%s: the observation after the save left the tracker unchanged; the check proves little", name)
		}
		b = s
		if b != want || b.Final() != want.Final() {
			t.Fatalf("%s: restored %+v, saved %+v", name, b.st, want.st)
		}
		if allocs := testing.AllocsPerRun(100, func() { s = b }); allocs != 0 {
			t.Fatalf("%s: a tracker snapshot allocates %v times", name, allocs)
		}
	}
	if !final.Final() || dropped.Final() {
		t.Fatalf("Final: %v at the final beat, %v after the cut; want true and false", final.Final(), dropped.Final())
	}
}

// TestSecondCycle: only the first cycle of a non-OKAY response (HREADY
// low) has a predicted successor, the same response with HREADY high
// and no read data.
func TestSecondCycle(t *testing.T) {
	for _, resp := range []amba.Resp{amba.RespError, amba.RespRetry, amba.RespSplit} {
		got, ok := SecondCycle(amba.SlaveReply{Ready: false, Resp: resp, RData: 0x1234})
		if want := (amba.SlaveReply{Ready: true, Resp: resp}); !ok || got != want {
			t.Fatalf("%v first cycle: second %v (%v), want %v", resp, got, ok, want)
		}
		if _, ok := SecondCycle(amba.SlaveReply{Ready: true, Resp: resp}); ok {
			t.Fatalf("%v second cycle: predicted a third", resp)
		}
	}
	for _, ready := range []bool{false, true} {
		if _, ok := SecondCycle(amba.SlaveReply{Ready: ready, Resp: amba.RespOkay}); ok {
			t.Fatalf("OKAY (ready %v): predicted a second cycle", ready)
		}
	}
}

// step runs one data-phase cycle the way the engine does: predict,
// then observe the outcome (here the prediction itself, as on a
// run-ahead cycle).
func step(w *WaitModel) bool {
	ready := w.Predict()
	w.Observe(ready)
	return ready
}

func TestWaitModelMirrorsMemoryProfile(t *testing.T) {
	w := NewWaitModel(2, 1)
	// First beat: 2 waits then ready; next beat: 1 wait then ready.
	want := []bool{false, false, true, false, true, false, true}
	for i, r := range want {
		if got := step(&w); got != r {
			t.Fatalf("cycle %d: predicted ready=%v, want %v", i, got, r)
		}
	}
}

func TestWaitModelObserveRealigns(t *testing.T) {
	w := NewWaitModel(0, 0)
	// Model expects ready immediately, but the real slave waited twice.
	w.Observe(false)
	w.Observe(false)
	w.Observe(true)
	// After the beat completes, the model starts the next beat cleanly.
	if !w.Predict() {
		t.Fatal("zero-wait model must predict ready on a fresh beat")
	}
}

func TestWaitModelSnapshot(t *testing.T) {
	w := NewWaitModel(3, 1)
	step(&w) // one wait cycle into the first beat
	s := w
	// Two more waits, the first beat completes, then a 1-wait beat.
	want := []bool{false, false, true, false, true}
	for pass := 0; pass < 2; pass++ {
		for i, r := range want {
			if got := step(&w); got != r {
				t.Fatalf("pass %d, cycle %d: predicted ready=%v, want %v", pass, i, got, r)
			}
		}
		w = s
	}
}

func TestFaultInjectorExtremes(t *testing.T) {
	f := NewFaultInjector(1, 1)
	for i := 0; i < 1000; i++ {
		if f.Mispredict() {
			t.Fatal("p=1 must never mispredict")
		}
	}
	g := NewFaultInjector(0, 1)
	for i := 0; i < 1000; i++ {
		if !g.Mispredict() {
			t.Fatal("p=0 must always mispredict")
		}
	}
	checks, faults := g.Stats()
	if checks != 1000 || faults != 1000 {
		t.Fatalf("stats %d/%d", checks, faults)
	}
}

func TestFaultInjectorRate(t *testing.T) {
	f := NewFaultInjector(0.9, 7)
	const n = 100000
	faults := 0
	for i := 0; i < n; i++ {
		if f.Mispredict() {
			faults++
		}
	}
	rate := float64(faults) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("fault rate %g, want ~0.10", rate)
	}
	if f.Accuracy() != 0.9 {
		t.Fatal("accuracy accessor")
	}
}

func TestFaultInjectorBadAccuracyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accuracy > 1 must panic")
		}
	}()
	NewFaultInjector(1.5, 1)
}
