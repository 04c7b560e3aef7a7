package ip

import (
	"testing"

	"coemu/internal/amba"
)

// The leader's copy of a remote master's sequencer: zero-valued (no
// BUSY cadence), fed only what the master drives on ready cycles while
// granted. Its burst continuation, declines and idle drop are checked
// in internal/predict (burst_test.go); ip.TrafficMaster's own use of
// the type is checked by the master tests and, beside a copy, by the
// mirror tests and fuzzers there.

// observeBurst feeds a copy a whole fixed-length burst starting at addr,
// the master keeping the grant.
func observeBurst(s *Sequencer, addr amba.Addr, burst amba.Burst) {
	ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: burst, Write: true}
	s.Observe(ap, true)
	for i := 1; i < burst.Beats(); i++ {
		ap.Trans = amba.TransSeq
		ap.Addr = amba.NextAddr(ap.Addr, ap.Size, ap.Burst)
		s.Observe(ap, true)
	}
}

// TestSequencerCopyFinal: Observe reports the final beat of a
// fixed-length burst, and no other beat: none mid-burst, none of an
// INCR burst, and no IDLE.
func TestSequencerCopyFinal(t *testing.T) {
	for _, burst := range []amba.Burst{amba.BurstSingle, amba.BurstIncr4, amba.BurstWrap8, amba.BurstIncr16} {
		var s Sequencer
		ap := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: burst}
		for beat := 1; beat <= burst.Beats(); beat++ {
			if got, want := s.Observe(ap, true), beat == burst.Beats(); got != want {
				t.Fatalf("%v beat %d: final %v, want %v", burst, beat, got, want)
			}
			ap, _ = s.Predict()
		}
		if s.Observe(amba.AddrPhase{}, true) {
			t.Fatalf("%v: an IDLE reported final", burst)
		}
	}
	var s Sequencer
	ap := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr}
	for beat := 0; beat < 20; beat++ {
		if s.Observe(ap, true) {
			t.Fatalf("INCR beat %d: final", beat)
		}
		ap, _ = s.Predict()
	}
}

// TestSequencerCopyCut: a master that loses the grant on its final
// beat starts a new burst when it is granted again, so the copy drops
// the transfer exactly as one IDLE observation does and declines. A
// grant lost with beats left makes the copy predict the rebuild: an
// INCR from a NONSEQ at the next beat.
func TestSequencerCopyCut(t *testing.T) {
	var s Sequencer
	observeBurst(&s, 0x100, amba.BurstIncr4)
	idle := s
	idle.Observe(amba.AddrPhase{}, true)
	var cut Sequencer
	ap := amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4, Write: true}
	for beat := 1; beat < 4; beat++ {
		cut.Observe(ap, true)
		ap, _ = cut.Predict()
	}
	if !cut.Observe(ap, false) {
		t.Fatal("the final beat, observed with the grant lost, was not reported final")
	}
	if cut != idle {
		t.Fatalf("a grant lost on the final beat left %+v, one IDLE observation %+v", cut.st, idle.st)
	}
	if ap, ok := cut.Predict(); ok {
		t.Fatalf("regrant after a grant lost on the final beat: predicted %v, want a decline", ap)
	}

	s = Sequencer{}
	s.Observe(amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4}, false)
	if ap, ok := s.Predict(); !ok || ap.Trans != amba.TransNonSeq || ap.Addr != 0x104 || ap.Burst != amba.BurstIncr {
		t.Fatalf("regrant after a grant lost with beats left: predicted %v (confident %v), want the INCR rebuild at 0x104", ap, ok)
	}
}

// TestSequencerCopySnapshot: a struct copy is a snapshot, mid-burst, at
// a final beat (a pending request fall) and after a grant lost on the
// final beat (a dropped transfer), and taking one allocates nothing.
func TestSequencerCopySnapshot(t *testing.T) {
	var s Sequencer
	s.Observe(amba.AddrPhase{Addr: 0x10, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr8}, true)
	saved := s
	p1, _ := s.Predict()
	s.Observe(p1, true)
	s = saved
	if p2, _ := s.Predict(); p1 != p2 {
		t.Fatal("snapshot replay diverged")
	}

	var final Sequencer
	observeBurst(&final, 0x100, amba.BurstWrap4)
	dropped := final
	dropped.Observe(amba.AddrPhase{}, false)
	for name, want := range map[string]Sequencer{"final beat": final, "dropped transfer": dropped} {
		s = want
		saved = s
		s.Observe(amba.AddrPhase{Addr: 0x200, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr4}, true)
		if s == want {
			t.Fatalf("%s: the observation after the save left the copy unchanged; the check proves little", name)
		}
		s = saved
		if s != want {
			t.Fatalf("%s: restored %+v, saved %+v", name, s.st, want.st)
		}
		if allocs := testing.AllocsPerRun(100, func() { saved = s }); allocs != 0 {
			t.Fatalf("%s: a sequencer snapshot allocates %v times", name, allocs)
		}
	}
	if !final.Loaded() || final.left() || dropped.Loaded() {
		t.Fatalf("final beat: loaded %v with beats left %v; dropped: loaded %v", final.Loaded(), final.left(), dropped.Loaded())
	}
}
