package predict

import (
	"testing"

	"coemu/internal/amba"
)

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

func TestPredictIdleExtension(t *testing.T) {
	tr := &BurstTracker{PredictIdle: true}
	ap, ok := tr.Predict()
	if !ok || !ap.Idle() {
		t.Fatal("idle prediction must offer IDLE with no context")
	}
	tr.Observe(amba.AddrPhase{}) // stays idle
	if ap, ok := tr.Predict(); !ok || !ap.Idle() {
		t.Fatal("idle continuation lost")
	}
}

func TestPredictStartsZeroGap(t *testing.T) {
	tr := &BurstTracker{PredictStarts: true}
	// Two back-to-back bursts (no idle between) establish stride 32 and
	// gap 0.
	observeBurst(tr, 0x100, amba.BurstIncr8)
	observeBurst(tr, 0x120, amba.BurstIncr8)
	// Immediately after the second burst's last beat the tracker must
	// predict the third burst's NONSEQ.
	ap, ok := tr.Predict()
	if !ok {
		t.Fatal("no prediction after burst with known stride")
	}
	if ap.Trans != amba.TransNonSeq || ap.Addr != 0x140 {
		t.Fatalf("predicted %v, want NONSEQ@140", ap)
	}
}

func TestPredictStartsWithGap(t *testing.T) {
	tr := &BurstTracker{PredictStarts: true}
	gap := 3
	feed := func(addr amba.Addr) {
		observeBurst(tr, addr, amba.BurstIncr4)
		for i := 0; i < gap; i++ {
			tr.Observe(amba.AddrPhase{})
		}
	}
	feed(0x100)
	feed(0x110)
	// Third round: after the burst the tracker must predict IDLE for
	// exactly `gap` cycles and then the NONSEQ.
	observeBurst(tr, 0x120, amba.BurstIncr4)
	for i := 0; i < gap; i++ {
		ap, ok := tr.Predict()
		if !ok || !ap.Idle() {
			t.Fatalf("gap cycle %d: predicted %v ok=%v, want IDLE", i, ap, ok)
		}
		tr.Observe(amba.AddrPhase{})
	}
	ap, ok := tr.Predict()
	if !ok || ap.Trans != amba.TransNonSeq || ap.Addr != 0x130 {
		t.Fatalf("after gap: predicted %v ok=%v, want NONSEQ@130", ap, ok)
	}
}

func TestPredictStartsStrideChangeSelfCorrects(t *testing.T) {
	tr := &BurstTracker{PredictStarts: true}
	observeBurst(tr, 0x100, amba.BurstIncr4)
	observeBurst(tr, 0x110, amba.BurstIncr4) // stride 0x10
	observeBurst(tr, 0x200, amba.BurstIncr4) // stride jumps to 0xF0
	ap, ok := tr.Predict()
	if !ok || ap.Addr != 0x2F0 {
		t.Fatalf("stride did not update: %v ok=%v", ap, ok)
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

func TestBurstTrackerSnapshotWithExtensions(t *testing.T) {
	tr := &BurstTracker{PredictStarts: true, PredictIdle: true}
	observeBurst(tr, 0x100, amba.BurstIncr4)
	observeBurst(tr, 0x110, amba.BurstIncr4)
	snap := tr.SaveInto(nil)
	a1, ok1 := tr.Predict()
	tr.Observe(amba.AddrPhase{Addr: 0x120, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true})
	tr.Restore(snap)
	a2, ok2 := tr.Predict()
	if a1 != a2 || ok1 != ok2 {
		t.Fatal("snapshot replay diverged with extensions enabled")
	}
}
