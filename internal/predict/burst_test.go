package predict_test

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/ip"
	"coemu/internal/predict"
)

// The leader's burst tracker for a remote master is a copy of the
// master's ip.Sequencer: zero-valued (no BUSY cadence) and fed only what
// the master drives on ready cycles while granted, the way the remote
// predictor feeds it. These tests check the burst continuation of the
// paper's §3 on such a copy; the final-beat report, the lost grant and
// the snapshot are checked beside the type in internal/ip.

// observeBurst feeds a copy a whole fixed-length burst starting at addr,
// the master keeping the grant.
func observeBurst(s *ip.Sequencer, addr amba.Addr, burst amba.Burst) {
	ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: burst, Write: true}
	s.Observe(ap, true)
	for i := 1; i < burst.Beats(); i++ {
		ap.Trans = amba.TransSeq
		ap.Addr = amba.NextAddr(ap.Addr, ap.Size, ap.Burst)
		s.Observe(ap, true)
	}
}

// TestBurstTrackerPredictsSeqChain: from an observed NONSEQ the copy
// predicts the SEQ chain with the control held, then IDLE after the
// fixed-length burst's final beat.
func TestBurstTrackerPredictsSeqChain(t *testing.T) {
	var s ip.Sequencer
	s.Observe(amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true}, true)
	for i := 1; i < 4; i++ {
		pred, ok := s.Predict()
		if !ok {
			t.Fatalf("no prediction at beat %d", i)
		}
		if want := amba.Addr(0x100 + 4*i); pred.Trans != amba.TransSeq || pred.Addr != want {
			t.Fatalf("beat %d predicted %v, want SEQ@%x", i, pred, want)
		}
		if !pred.Write || pred.Burst != amba.BurstIncr4 {
			t.Fatalf("control not held: %v", pred)
		}
		s.Observe(pred, true)
	}
	if pred, ok := s.Predict(); !ok || !pred.Idle() {
		t.Fatalf("after the burst's end: predicted %v (confident %v), want IDLE", pred, ok)
	}
}

// TestBurstTrackerWrap: a WRAP4 burst's successor wraps at its boundary.
func TestBurstTrackerWrap(t *testing.T) {
	var s ip.Sequencer
	s.Observe(amba.AddrPhase{Addr: 0x3c, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstWrap4}, true)
	if pred, ok := s.Predict(); !ok || pred.Addr != 0x30 {
		t.Fatalf("wrap prediction %v (confident %v), want 0x30", pred, ok)
	}
}

// TestBurstTrackerDeclinesWithoutContext: a copy with no transfer
// loaded declines, fresh and after an IDLE, because the start of a
// burst must cross the channel.
func TestBurstTrackerDeclinesWithoutContext(t *testing.T) {
	var s ip.Sequencer
	if _, ok := s.Predict(); ok {
		t.Fatal("a fresh copy must decline")
	}
	s.Observe(amba.AddrPhase{}, true)
	if _, ok := s.Predict(); ok {
		t.Fatal("an idle master must decline")
	}
}

// TestPredictStartsDisabledStaysPaperFaithful: back-to-back bursts end
// in a predicted IDLE, and the copy declines after the IDLE instead of
// guessing the next burst's start.
func TestPredictStartsDisabledStaysPaperFaithful(t *testing.T) {
	var s ip.Sequencer
	observeBurst(&s, 0x100, amba.BurstIncr8)
	observeBurst(&s, 0x120, amba.BurstIncr8)
	if ap, ok := s.Predict(); !ok || !ap.Idle() {
		t.Fatalf("after the second burst: predicted %v (confident %v), want IDLE", ap, ok)
	}
	s.Observe(amba.AddrPhase{}, true)
	if _, ok := s.Predict(); ok {
		t.Fatal("an idle master must decline after its bursts")
	}
}

// TestBurstTrackerIncrUnbounded: an INCR burst, whose length the
// protocol does not fix, is continued without end.
func TestBurstTrackerIncrUnbounded(t *testing.T) {
	var s ip.Sequencer
	s.Observe(amba.AddrPhase{Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr}, true)
	for i := 1; i <= 20; i++ {
		pred, ok := s.Predict()
		if !ok || pred.Addr != amba.Addr(4*i) {
			t.Fatalf("INCR beat %d: %v (confident %v)", i, pred, ok)
		}
		s.Observe(pred, true)
	}
}

// TestBurstTrackerSkipIdleMatchesObserves pins the batch contract the
// remote predictor's SkipIdle relies on: Drop leaves the copy
// bit-identical to any positive number of IDLE observations, from an
// idle copy and from the boundary cycle after a burst's final beat.
func TestBurstTrackerSkipIdleMatchesObserves(t *testing.T) {
	for _, seedIdle := range []bool{true, false} {
		for _, n := range []int{1, 17} {
			var seq, bat ip.Sequencer
			for _, s := range []*ip.Sequencer{&seq, &bat} {
				observeBurst(s, 0x1000, amba.BurstIncr4)
				if seedIdle {
					s.Observe(amba.AddrPhase{}, true)
				}
			}
			for i := 0; i < n; i++ {
				seq.Observe(amba.AddrPhase{}, true)
			}
			bat.Drop()
			if seq != bat {
				t.Errorf("seed idle %v, n=%d: Drop diverged: observed %+v, dropped %+v", seedIdle, n, seq, bat)
			}
		}
	}
}

// TestIdleStableForUnboundedWithoutGapModel pins a granted remote
// master's idle horizon as the remote predictor reads it: 0 while the
// copy has a transfer loaded, from a burst's NONSEQ through the
// boundary cycle after its final beat (the next IDLE observation drops
// it), else the request model's, which is Unbounded while it has
// learned no gap.
func TestIdleStableForUnboundedWithoutGapModel(t *testing.T) {
	req := predict.NewRequestModel(1)
	horizon := func(s *ip.Sequencer) int64 {
		if s.Loaded() {
			return 0
		}
		return req.IdleStableFor()
	}
	var s ip.Sequencer
	if got := horizon(&s); got != predict.Unbounded {
		t.Fatalf("fresh copy: horizon %d, want Unbounded", got)
	}
	s.Observe(amba.AddrPhase{Addr: 0x1000, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4}, true)
	if got := horizon(&s); got != 0 {
		t.Fatalf("mid-burst: horizon %d, want 0", got)
	}
	s = ip.Sequencer{}
	observeBurst(&s, 0x1000, amba.BurstIncr4)
	if got := horizon(&s); got != 0 {
		t.Fatalf("after the final beat: horizon %d, want 0", got)
	}
	s.Observe(amba.AddrPhase{}, true)
	if got := horizon(&s); got != predict.Unbounded {
		t.Fatalf("idle: horizon %d, want Unbounded", got)
	}
}
