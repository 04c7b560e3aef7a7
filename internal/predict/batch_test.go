package predict

import (
	"testing"

	"coemu/internal/amba"
)

// TestBurstTrackerSkipIdleMatchesObserves pins the batch contract:
// SkipIdle leaves the tracker bit-identical to any positive number of
// idle Observes, from an idle tracker and from the boundary cycle
// after a burst's final beat.
func TestBurstTrackerSkipIdleMatchesObserves(t *testing.T) {
	for _, seedIdle := range []bool{true, false} {
		for _, n := range []int{1, 17} {
			var seq, bat BurstTracker
			for _, tr := range []*BurstTracker{&seq, &bat} {
				observeBurst(tr, 0x1000, amba.BurstIncr4)
				if seedIdle {
					tr.Observe(amba.AddrPhase{Trans: amba.TransIdle})
				}
			}
			for i := 0; i < n; i++ {
				seq.Observe(amba.AddrPhase{Trans: amba.TransIdle})
			}
			bat.SkipIdle()
			if seq != bat {
				t.Errorf("seed idle %v, n=%d: SkipIdle diverged: seq %+v, batch %+v", seedIdle, n, seq, bat)
			}
		}
	}
}

// TestIdleStableForUnboundedWithoutGapModel pins the horizon: an idle
// tracker declines forever, so its horizon is Unbounded; a tracker
// whose last ready cycle carried a beat, the final one included, is
// pinned to 0.
func TestIdleStableForUnboundedWithoutGapModel(t *testing.T) {
	var tr BurstTracker
	if got := tr.IdleStableFor(); got != Unbounded {
		t.Fatalf("fresh tracker: IdleStableFor = %d, want Unbounded", got)
	}
	tr.Observe(amba.AddrPhase{Addr: 0x1000, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4})
	if got := tr.IdleStableFor(); got != 0 {
		t.Fatalf("mid-burst: IdleStableFor = %d, want 0", got)
	}
	tr = BurstTracker{}
	observeBurst(&tr, 0x1000, amba.BurstIncr4)
	if got := tr.IdleStableFor(); got != 0 {
		t.Fatalf("after the final beat: IdleStableFor = %d, want 0", got)
	}
	tr.Observe(amba.AddrPhase{Trans: amba.TransIdle})
	if got := tr.IdleStableFor(); got != Unbounded {
		t.Fatalf("idle: IdleStableFor = %d, want Unbounded", got)
	}
}
