package predict

import (
	"fmt"
	"testing"
)

// feedRuns drives line bit of m through the given low runs, each
// followed by high cycles of the line.
func feedRuns(m *RequestModel, bit uint32, high int, lows ...int) {
	for _, low := range lows {
		for i := 0; i < low; i++ {
			m.Observe(0)
		}
		for i := 0; i < high; i++ {
			m.Observe(bit)
		}
	}
}

// TestRequestModelPredictsFixedGapRise: once the line's last two low
// runs agree, every later cycle of a repeating run but its fall is
// predicted right, the rise included.
func TestRequestModelPredictsFixedGapRise(t *testing.T) {
	const bit = 1 << 2
	m := NewRequestModel(bit | 1<<5)
	feedRuns(&m, bit, 3, 5, 5)
	for round := 0; round < 4; round++ {
		m.Observe(0) // the fall: last-value predicts it wrong
		for cycle := 1; cycle < 5+3; cycle++ {
			want := uint32(0)
			if cycle >= 5 {
				want = bit
			}
			if got := m.Predict(); got != want {
				t.Fatalf("round %d, cycle %d of the run: predicted %#x, want %#x", round, cycle, got, want)
			}
			m.Observe(want)
		}
	}
}

// TestRequestModelUnequalRunsFallBack: a line whose last two low runs
// differ is predicted as its last value, through the low run and after
// its rise alike.
func TestRequestModelUnequalRunsFallBack(t *testing.T) {
	const bit = 1 << 1
	m := NewRequestModel(bit)
	feedRuns(&m, bit, 2, 4, 6)
	m.Observe(0)
	for cycle := 1; cycle < 10; cycle++ {
		if got := m.Predict(); got != 0 {
			t.Fatalf("cycle %d of a low run: predicted %#x, want the last value 0", cycle, got)
		}
		m.Observe(0)
	}
	m.Observe(bit)
	if got := m.Predict(); got != bit {
		t.Fatalf("after the rise: predicted %#x, want the last value %#x", got, bit)
	}
	// A rise that does not come when due falls back to the last value.
	feedRuns(&m, bit, 2, 5, 5)
	for i := 0; i < 5; i++ {
		m.Observe(0)
	}
	if got := m.Predict(); got != bit {
		t.Fatalf("rise due: predicted %#x, want %#x", got, bit)
	}
	m.Observe(0)
	if got := m.Predict(); got != 0 {
		t.Fatalf("rise overdue: predicted %#x, want the last value 0", got)
	}
}

// TestRequestModelFall: a high line announced to fall is predicted low
// for the one cycle that follows; the next Observe ends the
// announcement, and the line's last value takes over. A rise scheduled
// on another line is unaffected, and a line outside the mask cannot be
// announced.
func TestRequestModelFall(t *testing.T) {
	const a, b = 1 << 1, 1 << 4
	m := NewRequestModel(a | b)
	feedRuns(&m, b, 2, 3, 3)
	for i := 0; i < 2; i++ {
		m.Observe(a)
	}
	m.Fall(1)
	m.Fall(7) // not a modeled line
	if got := m.Predict(); got != 0 {
		t.Fatalf("fall announced: predicted %#x, want 0", got)
	}
	if m.st.Fall != a {
		t.Fatalf("announced falls %#x, want %#x", m.st.Fall, uint32(a))
	}
	m.Observe(0)
	if got := m.Predict(); got != b {
		t.Fatalf("the cycle after the fall, b's rise due: predicted %#x, want %#x", got, uint32(b))
	}
	m.Observe(a | b)
	m.Fall(1)
	m.Observe(a | b) // the fall did not come: last value again
	if got := m.Predict(); got != a|b {
		t.Fatalf("after a fall that did not come: predicted %#x, want the last value %#x", got, uint32(a|b))
	}
}

// requestStates builds request models in every kind of state an idle
// stretch can start from: no history, one line high (with and without
// its fall announced), unequal runs, and a learned period at each point
// of its low run and past it.
func requestStates() map[string]RequestModel {
	const a, b = 1 << 0, 1 << 3
	states := map[string]RequestModel{"fresh": NewRequestModel(a | b)}
	m := NewRequestModel(a | b)
	m.Observe(a)
	states["line high"] = m
	m.Fall(0)
	states["fall announced"] = m
	m = NewRequestModel(a | b)
	feedRuns(&m, a, 1, 3, 7)
	m.Observe(0)
	states["unequal runs"] = m
	for low := 1; low <= 6; low++ {
		m = NewRequestModel(a | b)
		feedRuns(&m, a, 2, 4, 4)
		for i := 0; i < low; i++ {
			m.Observe(0)
		}
		states[fmt.Sprintf("period 4, low %d", low)] = m
	}
	// Two lines with different periods: the nearer rise bounds.
	m = NewRequestModel(a | b)
	for r := 0; r < 3; r++ {
		for i := 0; i < 9; i++ {
			v := uint32(0)
			if i >= 3 {
				v |= a
			}
			if i >= 6 {
				v |= b
			}
			m.Observe(v)
		}
	}
	m.Observe(0)
	states["two periods"] = m
	return states
}

// TestRequestModelSkipIdleMatchesObserves pins the batch contract:
// SkipIdle(n) leaves the model bit-identical to n idle Observes.
func TestRequestModelSkipIdleMatchesObserves(t *testing.T) {
	for name, start := range requestStates() {
		for _, n := range []int64{1, 2, 3, 5, 17} {
			seq, bat := start, start
			for i := int64(0); i < n; i++ {
				seq.Observe(0)
			}
			bat.SkipIdle(n)
			if seq != bat {
				t.Errorf("%s, n=%d: SkipIdle diverged: seq %+v, batch %+v", name, n, seq.st, bat.st)
			}
		}
	}
}

// TestRequestModelIdleStableForHorizon pins the stability horizon:
// Predict holds for exactly IdleStableFor idle cycles when a rise is
// scheduled, and for as long as the test looks when none is.
func TestRequestModelIdleStableForHorizon(t *testing.T) {
	const look = 1000
	for name, m := range requestStates() {
		h := m.IdleStableFor()
		if m.st.Last|m.st.Fall != 0 && h != 0 {
			t.Errorf("%s: horizon %d with a line high or a fall announced, want 0", name, h)
			continue
		}
		p0 := m.Predict()
		for j := int64(0); j < h && j < look; j++ {
			if got := m.Predict(); got != p0 {
				t.Fatalf("%s: prediction %#x changed to %#x after %d of %d idle cycles", name, p0, got, j, h)
			}
			m.Observe(0)
		}
		if h < look && h > 0 && m.Predict() == p0 {
			t.Errorf("%s: prediction %#x still holds after the %d-cycle horizon; the bound is loose", name, p0, h)
		}
	}
	want := map[string]int64{
		"period 4, low 1": 3, "period 4, low 3": 1, "period 4, low 4": 0,
		"period 4, low 5": Unbounded, "unequal runs": Unbounded, "fresh": Unbounded,
		"two periods": 2,
	}
	states := requestStates()
	for name, h := range want {
		m := states[name]
		if got := m.IdleStableFor(); got != h {
			t.Errorf("%s: IdleStableFor = %d, want %d", name, got, h)
		}
	}
}

// TestRequestModelSaturates: a 2^40-cycle idle stretch saturates the
// low-run counter instead of wrapping it, and a saturated run is never
// trusted as a period.
func TestRequestModelSaturates(t *testing.T) {
	const bit = 1
	m := NewRequestModel(bit)
	feedRuns(&m, bit, 1, 3, 3)
	m.SkipIdle(1 << 40)
	if l := m.st.Lines[0]; l.Low != runSat {
		t.Fatalf("low run after 2^40 idle cycles = %d, want saturated %d", l.Low, uint32(runSat))
	}
	m.Observe(0)
	if l := m.st.Lines[0]; l.Low != runSat {
		t.Fatalf("an Observe past saturation moved the counter to %d", l.Low)
	}
	if got := m.Predict(); got != 0 {
		t.Fatalf("predicted %#x after an overlong low run, want the last value 0", got)
	}
	m.Observe(bit)
	m.SkipIdle(1 << 40)
	m.Observe(bit)
	m.SkipIdle(1 << 40)
	if l := m.st.Lines[0]; l.Run != runSat || l.Prev != runSat || l.Low != runSat {
		t.Fatalf("counters %+v, want every one saturated", l)
	}
	if got, h := m.Predict(), m.IdleStableFor(); got != 0 || h != Unbounded {
		t.Fatalf("two saturated runs: predicted %#x with horizon %d, want 0 and Unbounded", got, h)
	}
}
