package ip

import "coemu/internal/amba"

// Cadence is a slave's two-cycle response cadence (AMBA AHB, ARM IHI
// 0011A): the first attempt of every Every-th beat is answered with
// Resp, RETRY or SPLIT, in two cycles, {HREADY low, Resp} then {HREADY
// high, Resp}, and the beat is served when its master reissues it. The
// zero value has no cadence. Resp with Every 0 names the response kind
// alone: a slave whose cadence its SlaveTiming is not told.
type Cadence struct {
	Resp  amba.Resp
	Every int
}

// RetryEvery is the cadence of a slave that RETRYs the first attempt of
// every n-th beat.
func RetryEvery(n int) Cadence { return Cadence{Resp: amba.RespRetry, Every: n} }

// SplitEvery is the cadence of a slave that SPLITs the first attempt of
// every n-th beat.
func SplitEvery(n int) Cadence { return Cadence{Resp: amba.RespSplit, Every: n} }

// SlaveTiming is the bus-observable timing of a deterministic memory
// slave, as an automaton: the HREADY and HRESP it drives on each cycle
// a beat spends in its data phase. It has two parts:
//
//   - the wait countdown: the first beat the slave ever serves costs
//     first wait states, every later beat costs next (the burst
//     affinity is sticky: the first completed beat sets it and nothing
//     clears it);
//   - the cadence: the first attempt of every Every-th beat gets the
//     two-cycle response, and the reissued attempt is then served.
//
// Reply only reads the automaton; Observe, once per data-phase cycle
// with that cycle's HREADY, is the one call that advances it. ip.Memory
// and its RETRY and SPLIT variants drive their replies from it, and the
// leader's response predictor runs a copy on the data-phase cycles it
// observes, so the copy predicts what the slave drives. It is a plain
// value, so a struct copy is its snapshot.
type SlaveTiming struct {
	first, next int
	cadence     Cadence

	st timingState
}

type timingState struct {
	WaitLeft int  // wait cycles left of the beat in progress; -1: none
	InBurst  bool // a beat has completed
	Beat     int  // completed beats, modulo the cadence's Every
	Second   bool // the first cycle of a two-cycle response was driven
	Done     bool // the beat whose turn came has had its response
}

// NewSlaveTiming creates the automaton of a slave with the given wait
// profile and cadence, before its first beat.
func NewSlaveTiming(first, next int, c Cadence) SlaveTiming {
	return SlaveTiming{first: first, next: next, cadence: c, st: timingState{WaitLeft: -1}}
}

// turn reports whether the beat in the data phase is the first attempt
// of a beat whose two-cycle response is due.
func (t *SlaveTiming) turn() bool {
	return t.cadence.Every > 0 && !t.st.Done && t.st.Beat == t.cadence.Every-1
}

// budget returns the wait states of a fresh beat.
func (t *SlaveTiming) budget() int {
	if t.st.InBurst {
		return t.next
	}
	return t.first
}

// Reply returns the HREADY and HRESP the slave drives on the current
// data-phase cycle (no read data). It is pure.
func (t *SlaveTiming) Reply() amba.SlaveReply {
	switch {
	case t.st.Second:
		return amba.SlaveReply{Ready: true, Resp: t.cadence.Resp}
	case t.turn():
		return amba.SlaveReply{Ready: false, Resp: t.cadence.Resp}
	case t.st.WaitLeft < 0:
		return amba.SlaveReply{Ready: t.budget() == 0, Resp: amba.RespOkay}
	}
	return amba.SlaveReply{Ready: t.st.WaitLeft == 0, Resp: amba.RespOkay}
}

// Observe advances the automaton by one data-phase cycle with its
// HREADY. An HREADY other than Reply's (a slave whose timing the
// profile does not describe) never stalls it: a pending countdown or
// two-cycle response ends at the next ready cycle.
func (t *SlaveTiming) Observe(ready bool) {
	switch {
	case t.st.Second:
		if ready {
			t.st.Second, t.st.Done = false, true
		}
		return
	case t.turn() && !ready:
		t.st.Second = true
		return
	}
	if t.st.WaitLeft < 0 {
		t.st.WaitLeft = t.budget()
	}
	if !ready {
		if t.st.WaitLeft > 0 {
			t.st.WaitLeft--
		}
		return
	}
	t.st.WaitLeft, t.st.InBurst, t.st.Done = -1, true, false
	if t.cadence.Every > 0 {
		t.st.Beat = (t.st.Beat + 1) % t.cadence.Every
	}
}
