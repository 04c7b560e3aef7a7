// Package predict implements the signal predictors of the paper's §3:
//
//   - arbitration requests: last-value prediction, plus the rise of a
//     line whose last two low runs were equally long (a master that
//     requests the bus after a fixed gap) and the fall on the cycle
//     after a fixed-length burst's final beat,
//   - interrupt lines: last-value prediction,
//   - the second cycle of a two-cycle ERROR, RETRY or SPLIT response,
//
// plus a fault injector used by the evaluation harness to pin prediction
// accuracy to an exact probability, the way the paper's Table 2 and
// Figure 4 sweep it. Two behaviours need no predictor of their own,
// because the leader runs the component's own automaton on the cycles
// it observes. The active master's address/control, burst continuation
// ("their values either increase linearly over time or remain constant
// throughout a single burst transaction"), including the INCR remainder
// a master rebuilds after losing the grant mid-burst, comes from a copy
// of the master's sequencer, ip.Sequencer, loaded from the NONSEQ it
// observes; that copy also marks the final beat that RequestModel.Fall
// announces. The active slave's wait states and RETRY/SPLIT cadence
// come from the slave's timing automaton, ip.SlaveTiming.
//
// Read data and write data are deliberately absent: the paper classifies
// them as non-predictable, and the scheme instead chooses the data
// *source* domain as leader so data only flows leader→lagger.
//
// Predictors and injectors are single-goroutine state machines, driven
// by the engine that owns them. Every predictor keeps its state in
// plain values, so a struct copy is its snapshot: the engine saves and
// restores predictors by copying them.
package predict

import (
	"fmt"
	"math"
	"math/bits"

	"coemu/internal/amba"
	"coemu/internal/rng"
)

// Unbounded is the quiescence horizon of a predictor whose output is
// provably stable forever (until something other than the passage of
// idle cycles perturbs it). Callers min it against their own bounds.
const Unbounded = int64(math.MaxInt64)

// LastValue predicts a bitmask signal group (bus requests, interrupt
// lines) as "same as last observed". In SoC designs where data flows in
// long bursts, "the arbitration result tends to change only occasionally
// and we can effectively predict its value from its previous one" (§3).
type LastValue struct {
	v uint32
}

// Predict returns the predicted value.
func (l *LastValue) Predict() uint32 { return l.v }

// Observe records the actual value.
func (l *LastValue) Observe(v uint32) { l.v = v }

// RequestModel predicts the bus-request lines (HBUSREQx) of the masters
// in mask. A line is predicted as its last value, with two exceptions.
// A low line is predicted to rise once it has been low exactly as long
// as each of its last two completed low runs, when those two were
// equally long: a master that requests the bus after a fixed gap rises
// on a schedule. A line whose rise does not come falls back to its last
// value. And a line announced with Fall is predicted low for the one
// cycle that follows. The counters saturate, and a saturated run is
// never trusted. All state is a value, so a struct copy is a snapshot.
type RequestModel struct {
	mask uint32
	st   reqState
}

type reqState struct {
	Last  uint32 // last observed value of every modeled line
	Fall  uint32 // lines announced to fall on the next cycle
	Lines [amba.MaxMasters]reqLine
}

// reqLine is one line's low-run history, in observed cycles.
type reqLine struct {
	Low       uint32 // length of the current low run (0 while high)
	Run, Prev uint32 // the last two completed low runs (0 = none yet)
}

// runSat is the saturation value of the low-run counters.
const runSat = math.MaxUint32

// NewRequestModel creates a model of the request lines in mask (bit i
// is master i's HBUSREQ).
func NewRequestModel(mask uint32) RequestModel {
	return RequestModel{mask: mask & (1<<amba.MaxMasters - 1)}
}

// period returns the low-run length the line repeats, or 0 when its
// last two runs do not agree.
func (l *reqLine) period() uint32 {
	if l.Run == l.Prev && l.Run != runSat {
		return l.Run
	}
	return 0
}

// Predict returns the predicted request lines. It is pure.
func (r *RequestModel) Predict() uint32 {
	v := r.st.Last
	for m := r.mask &^ v; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if l := &r.st.Lines[i]; l.Low != 0 && l.Low == l.period() {
			v |= 1 << uint(i)
		}
	}
	return v &^ r.st.Fall
}

// Fall announces that master i's line is low on the next cycle:
// ip.TrafficMaster drops HBUSREQ on the cycle after the ready cycle that
// accepts a fixed-length burst's final address phase, which its
// sequencer copy's Observe reports. The next Observe
// ends the announcement, and the line's last value takes over.
func (r *RequestModel) Fall(i int) {
	r.st.Fall |= r.mask & (1 << uint(i))
}

// Observe records the lines' actual value for one cycle.
func (r *RequestModel) Observe(v uint32) {
	r.st.Fall = 0
	v &= r.mask
	for m := r.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		l := &r.st.Lines[i]
		switch {
		case v&(1<<uint(i)) == 0:
			if l.Low < runSat {
				l.Low++
			}
		case l.Low != 0: // a rise completes the low run
			l.Prev, l.Run, l.Low = l.Run, l.Low, 0
		}
	}
	r.st.Last = v
}

// IdleStableFor reports for how many further cycles with every line
// observed low Predict is guaranteed not to change: until the earliest
// scheduled rise, 0 at it, while a line is high or while a fall is
// announced (a low observation changes it), and Unbounded when no rise
// is scheduled.
func (r *RequestModel) IdleStableFor() int64 {
	if r.st.Last|r.st.Fall != 0 {
		return 0
	}
	h := Unbounded
	for m := r.mask; m != 0; m &= m - 1 {
		l := &r.st.Lines[bits.TrailingZeros32(m)]
		p := l.period()
		switch {
		case p == 0 || l.Low > p:
		case l.Low == p:
			return 0
		case int64(p-l.Low) < h:
			h = int64(p - l.Low)
		}
	}
	return h
}

// SkipIdle applies n observations with every line low in one step,
// bit-identically to n Observe(0) calls.
func (r *RequestModel) SkipIdle(n int64) {
	for m := r.mask; m != 0; m &= m - 1 {
		l := &r.st.Lines[bits.TrailingZeros32(m)]
		if n >= int64(runSat-l.Low) {
			l.Low = runSat
		} else {
			l.Low += uint32(n)
		}
	}
	r.st.Last, r.st.Fall = 0, 0
}

// SecondCycle predicts the reply that follows r. An ERROR, RETRY or
// SPLIT response takes two cycles (AMBA AHB, ARM IHI 0011A): {HREADY
// low, resp}, then {HREADY high, the same resp}. Neither carries read
// data, so the slaves (ip and the bus's default slave) drive HRDATA 0.
// When r is such a first cycle, SecondCycle returns the second and
// true; otherwise it returns false.
func SecondCycle(r amba.SlaveReply) (amba.SlaveReply, bool) {
	if r.Ready || r.Resp == amba.RespOkay {
		return amba.SlaveReply{}, false
	}
	return amba.SlaveReply{Ready: true, Resp: r.Resp}, true
}

// FaultInjector pins prediction accuracy for the evaluation sweeps: each
// checked prediction is declared wrong with probability 1-p, regardless
// of its real outcome. Injection happens at the lagger's check, so the
// committed behavior stays correct while the full rollback/roll-forth
// cost is paid — exactly the quantity the paper's model measures.
type FaultInjector struct {
	p      float64
	r      *rng.Source
	checks int64
	faults int64
}

// NewFaultInjector creates an injector with per-check success
// probability p in [0,1]. p=1 never injects; p=0 fails every check.
func NewFaultInjector(p float64, seed uint64) *FaultInjector {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("predict: accuracy %v out of [0,1]", p))
	}
	return &FaultInjector{p: p, r: rng.New(seed)}
}

// Mispredict reports whether the current check must be treated as a
// prediction failure.
func (f *FaultInjector) Mispredict() bool {
	f.checks++
	if f.r.Bool(1 - f.p) {
		f.faults++
		return true
	}
	return false
}

// Stats returns checks performed and faults injected.
func (f *FaultInjector) Stats() (checks, faults int64) { return f.checks, f.faults }

// Accuracy returns the configured success probability.
func (f *FaultInjector) Accuracy() float64 { return f.p }
