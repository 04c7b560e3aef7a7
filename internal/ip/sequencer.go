package ip

import (
	"math"

	"coemu/internal/amba"
)

// Sequencer is the beat sequence of one master transfer, as an
// automaton: what the AHB protocol fixes about the address phases a
// master drives once its transfer has begun. It holds the transfer's
// first address phase and beat count, the index and address of the next
// beat, and the address of the beat before it. From these it chooses
// NONSEQ, SEQ or BUSY for the next beat, and it rebuilds the remainder
// of a transfer whose beat got RETRY or SPLIT, or whose master lost the
// grant with beats left: the remainder is reissued as INCR with the
// same beat count, following the original burst's addresses, from a
// fresh NONSEQ, and with a fresh NONSEQ at each wrap point of a WRAP
// burst. "Beats left" is the master's request.
//
// ip.TrafficMaster drives its address phases from one, and the leader's
// predictor runs a copy per remote master, fed by Observe. The zero
// value has no transfer loaded and no BUSY cadence. It is a plain
// value, so a struct copy is its snapshot.
type Sequencer struct {
	// busyEvery > 0 inserts one BUSY cycle before every busyEvery-th
	// beat of a burst; the zero value has no BUSY cadence.
	busyEvery int

	st seqState
}

type seqState struct {
	// First is the transfer's first address phase; its Burst turns INCR
	// once the remainder is reissued.
	First amba.AddrPhase
	Beats int       // the beat count (unbounded: an observed INCR); 0: none loaded
	Issue int       // beats accepted, the index of the next beat
	Addr  amba.Addr // the next beat's address
	// Prev is the address of beat Issue-1; after a reissue it repeats
	// Addr, since the reissued beat opens with a NONSEQ.
	Prev amba.Addr
	// Wrap masks the address bits a beat advances in the original
	// burst: all of them, or in a WRAP burst those below its boundary.
	Wrap   amba.Addr
	NeedNS bool // the next beat opens with a NONSEQ
	Busied bool // a BUSY was accepted before the next beat
}

// unbounded is the beat count of an observed INCR burst, whose length
// the protocol does not fix.
const unbounded = math.MaxInt

// load starts a transfer of beats beats whose first address phase is
// first (its Trans aside).
func (s *Sequencer) load(first amba.AddrPhase, beats int) {
	wrap := ^amba.Addr(0)
	if b := amba.WrapBoundaryBytes(first.Burst, first.Size); b > 0 {
		wrap = amba.Addr(b - 1)
	}
	s.st = seqState{First: first, Beats: beats, Addr: first.Addr, Prev: first.Addr, Wrap: wrap, NeedNS: true}
}

// Drop unloads the transfer.
func (s *Sequencer) Drop() { s.st = seqState{} }

// Loaded reports whether a transfer is loaded.
func (s *Sequencer) Loaded() bool { return s.st.Beats > 0 }

// left reports whether the transfer has beats left to issue: a master
// requests the bus while it does.
func (s *Sequencer) left() bool { return s.st.Issue < s.st.Beats }

// last returns the index and address phase (its Trans and Burst aside)
// of the beat accepted last.
func (s *Sequencer) last() (int, amba.AddrPhase) {
	ap := s.st.First
	ap.Addr = s.st.Prev
	return s.st.Issue - 1, ap
}

// next returns the next beat's address phase: NONSEQ at the start of
// the transfer, of a reissued remainder and at a wrap point of one (an
// INCR transfer's own addresses never wrap, so only a reissued WRAP
// remainder has one), a BUSY before every busyEvery-th beat, SEQ
// otherwise. It is pure.
func (s *Sequencer) next() amba.AddrPhase {
	ap := s.st.First
	ap.Addr = s.st.Addr
	switch {
	case s.st.NeedNS || ap.Burst == amba.BurstIncr && ap.Addr != s.st.Prev+amba.Addr(ap.Size.Bytes()):
		ap.Trans = amba.TransNonSeq
	case s.busyEvery > 0 && s.st.Issue%s.busyEvery == 0 && !s.st.Busied:
		ap.Trans = amba.TransBusy
	default:
		ap.Trans = amba.TransSeq
	}
	return ap
}

// accept records that the address phase next gave, with HTRANS trans,
// was accepted on a ready cycle: an active beat moves the cursor on
// along the original burst's addresses (amba.NextAddr), and a BUSY is
// not inserted twice before the same beat.
func (s *Sequencer) accept(trans amba.Trans) {
	switch {
	case trans.Active():
		a := s.st.Addr
		s.st.Prev = a
		s.st.Addr = a&^s.st.Wrap | (a+amba.Addr(s.st.First.Size.Bytes()))&s.st.Wrap
		s.st.Issue++
		s.st.NeedNS, s.st.Busied = false, false
	case trans == amba.TransBusy:
		s.st.Busied = true
	}
}

// reissue steps back to the beat accepted last, which got RETRY or
// SPLIT, and reissues the remainder from it.
func (s *Sequencer) reissue() {
	s.st.Issue--
	s.st.Addr = s.st.Prev
	s.restart()
}

// cut records a grant lost on a ready cycle: a transfer that has begun
// and has beats left reissues its remainder when it is granted again.
func (s *Sequencer) cut() {
	if s.st.Issue > 0 && s.left() {
		s.restart()
	}
}

// restart reissues the remainder as INCR, from a fresh NONSEQ.
func (s *Sequencer) restart() {
	s.st.First.Burst = amba.BurstIncr
	s.st.NeedNS = true
}

// The leader's predictor runs a copy of each remote master's sequencer,
// built with no BUSY cadence and told no data-phase response. Observe
// loads the copy from the NONSEQ it sees and advances it on the beats
// that follow, so Predict offers what the master drives next.

// Observe feeds the copy the address phase its master drove on a ready
// cycle while granted, and whether the master keeps the grant. A NONSEQ
// that is not the copy's next beat loads a new transfer, its length
// from the burst type (INCR unbounded), and the beat is accepted, as is
// a SEQ while beats are left; a BUSY changes nothing. An IDLE drops the
// transfer, and so does a grant lost with no beats left, since the
// next grant starts a new transfer; a grant lost with beats left makes
// the remainder's rebuild the next beat. Observe reports whether ap was
// the final beat of a fixed-length transfer, after which the master
// drops its request.
func (s *Sequencer) Observe(ap amba.AddrPhase, granted bool) (final bool) {
	switch ap.Trans {
	case amba.TransNonSeq:
		if !s.left() || ap != s.next() {
			beats := ap.Burst.Beats()
			if beats == 0 {
				beats = unbounded
			}
			s.load(ap, beats)
		}
		s.accept(ap.Trans)
	case amba.TransSeq:
		if s.left() {
			s.accept(ap.Trans)
		}
	case amba.TransIdle:
		s.Drop()
	}
	final = s.Loaded() && !s.left()
	if !granted {
		if s.left() {
			s.cut()
		} else {
			s.Drop()
		}
	}
	return final
}

// Predict returns the copy's prediction of its master's next address
// phase and whether it is confident: the next beat while the transfer
// has beats left, IDLE after a fixed-length transfer's final beat, and
// a decline with no transfer loaded, because the start of a burst must
// genuinely cross the channel.
func (s *Sequencer) Predict() (amba.AddrPhase, bool) {
	switch {
	case !s.Loaded():
		return amba.AddrPhase{}, false
	case !s.left():
		return amba.AddrPhase{}, true
	}
	return s.next(), true
}
