package coemu_test

import (
	"runtime"
	"testing"

	"coemu"
)

// runAllocs runs an example design for the given cycle budget and
// returns the bytes and heap objects allocated meanwhile: the
// runtime.MemStats TotalAlloc and Mallocs deltas.
func runAllocs(t *testing.T, name string, cycles int64) (bytes, mallocs uint64) {
	t.Helper()
	g := exampleDesigns[name]
	d := g.design()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := coemu.Run(d, g.cfg, cycles); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestRunMemoryFlatInCycleBudget checks that a run's memory does not
// grow with its cycle budget: ten times the cycles may cost only a
// small constant more. Long coemud jobs depend on it, and it catches
// per-cycle or per-transition state that is kept instead of reused,
// such as a log that grows with every beat or a snapshot boxed on
// every store.
func TestRunMemoryFlatInCycleBudget(t *testing.T) {
	const short, long = 20_000, 200_000
	for _, c := range []struct {
		name  string
		what  string
		pick  func(bytes, mallocs uint64) uint64
		slack uint64 // what ten times the cycles may add: a few map or histogram buckets
	}{
		{"quickstart", "bytes", func(b, _ uint64) uint64 { return b }, 64 << 10},
		{"multimaster", "heap allocations", func(_, m uint64) uint64 { return m }, 500},
	} {
		var atShort, atLong uint64
		// An allocation on another goroutine can only inflate a count,
		// so a failing comparison is measured again before it counts.
		for attempt := 0; attempt < 3; attempt++ {
			atShort = c.pick(runAllocs(t, c.name, short))
			atLong = c.pick(runAllocs(t, c.name, long))
			if atLong <= atShort+c.slack {
				break
			}
		}
		t.Logf("%s: %d %s at %d cycles, %d at %d", c.name, atShort, c.what, short, atLong, long)
		if atLong > atShort+c.slack {
			t.Errorf("%s: %d %s at %d cycles against %d at %d: grows with the cycle budget (slack %d)",
				c.name, atLong, c.what, long, atShort, short, c.slack)
		}
	}
}
