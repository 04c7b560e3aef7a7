package rollback

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// counter is a Snapshotter test double whose SaveInto recycles prev.
type counter struct{ n int }

func (c *counter) SaveInto(prev any) any {
	p, ok := prev.(*int)
	if !ok {
		p = new(int)
	}
	*p = c.n
	return p
}

func (c *counter) Restore(v any) { c.n = *v.(*int) }

func TestRegistrySaveRestore(t *testing.T) {
	var r Registry
	a, b := &counter{1}, &counter{2}
	r.Register("a", a, 10)
	r.Register("b", b, 20)
	if r.Vars() != 30 {
		t.Fatalf("Vars = %d", r.Vars())
	}
	if r.Components() != 2 {
		t.Fatalf("Components = %d", r.Components())
	}
	var snap Snapshot
	r.SaveInto(&snap)
	// The latest save is restorable any number of times.
	for i := 0; i < 3; i++ {
		a.n, b.n = 100+i, 200+i
		r.Restore(snap)
		if a.n != 1 || b.n != 2 {
			t.Fatalf("restore %d gave %d,%d", i, a.n, b.n)
		}
	}
}

func TestRegistrySaveIntoRecycles(t *testing.T) {
	var r Registry
	r.Register("a", &counter{1}, 1)
	r.Register("b", &counter{2}, 1)
	var snap Snapshot
	r.SaveInto(&snap)
	if n := testing.AllocsPerRun(100, func() { r.SaveInto(&snap); r.Restore(snap) }); n != 0 {
		t.Fatalf("steady-state save+restore allocates %.1f times", n)
	}
}

func TestRegistryNilPanics(t *testing.T) {
	var r Registry
	defer func() {
		if recover() == nil {
			t.Fatal("nil snapshotter must panic")
		}
	}()
	r.Register("x", nil, 0)
}

func TestRegistryNegativeVarsPanics(t *testing.T) {
	var r Registry
	defer func() {
		if recover() == nil {
			t.Fatal("negative vars must panic")
		}
	}()
	r.Register("x", &counter{}, -1)
}

func TestRestoreTopologyMismatchPanics(t *testing.T) {
	var r Registry
	r.Register("a", &counter{}, 1)
	var snap Snapshot
	r.SaveInto(&snap)
	r.Register("b", &counter{}, 1)
	mustPanic(t, "1 components restored into 2", func() { r.Restore(snap) })
}

func TestHardwareCostFlat(t *testing.T) {
	m := HardwareCost()
	if m.StoreCost(0) != m.StoreCost(100000) {
		t.Error("hardware store cost must not depend on variable count")
	}
	if m.StoreCost(1000) != 15*time.Nanosecond {
		t.Errorf("hardware store = %v", m.StoreCost(1000))
	}
	if m.RestoreCost(1000) != 29*time.Nanosecond {
		t.Errorf("hardware restore = %v", m.RestoreCost(1000))
	}
}

func TestSoftwareCostLinear(t *testing.T) {
	m := SoftwareCost()
	// 1000 vars at 4.7 ns/var = 4.7 µs + 100 ns base.
	want := 4700*time.Nanosecond + 100*time.Nanosecond
	if got := m.StoreCost(1000); got != want {
		t.Errorf("software store(1000) = %v, want %v", got, want)
	}
	if m.StoreCost(2000) <= m.StoreCost(1000) {
		t.Error("software store cost must grow with variable count")
	}
}

// TestIncrementalStaleRestorePanics pins the single-live-snapshot
// discipline: a save makes every earlier snapshot of the registry
// unrestorable. (The name dates from the incremental-save ring that
// first enforced it.)
func TestIncrementalStaleRestorePanics(t *testing.T) {
	var r Registry
	r.Register("c", &counter{}, 1)
	var old, cur Snapshot
	r.SaveInto(&old)
	r.SaveInto(&cur)
	mustPanic(t, "stale", func() { r.Restore(old) })
	r.Restore(cur) // the latest save stays restorable
}

// TestIncrementalForeignRegistryPanics pins that a snapshot restores
// only into the registry that took it.
func TestIncrementalForeignRegistryPanics(t *testing.T) {
	var r1, r2 Registry
	r1.Register("c", &counter{}, 1)
	r2.Register("c", &counter{}, 1)
	var s Snapshot
	r1.SaveInto(&s)
	mustPanic(t, "foreign registry", func() { r2.Restore(s) })
}

// mustPanic fails the test unless f panics with a message containing
// want, so each restore check is pinned to its own panic.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}
