package sim

import "testing"

type probe struct {
	ticks  []int64
	resets int
}

func (p *probe) Tick(c int64) { p.ticks = append(p.ticks, c) }
func (p *probe) Reset()       { p.resets++ }

func TestKernelStepOrderAndClock(t *testing.T) {
	var k Kernel
	a, b := &probe{}, &probe{}
	k.Register(a)
	k.Register(b)
	k.Run(3)
	if k.Now() != 3 {
		t.Fatalf("Now = %d", k.Now())
	}
	want := []int64{0, 1, 2}
	for i, w := range want {
		if a.ticks[i] != w || b.ticks[i] != w {
			t.Fatalf("tick %d: a=%d b=%d want %d", i, a.ticks[i], b.ticks[i], w)
		}
	}
}

func TestKernelRegisterNilPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("nil component must panic")
		}
	}()
	k.Register(nil)
}

func TestKernelReset(t *testing.T) {
	var k Kernel
	p := &probe{}
	k.Register(p)
	k.Run(5)
	k.Reset()
	if k.Now() != 0 {
		t.Fatalf("Now after reset = %d", k.Now())
	}
	if p.resets != 1 {
		t.Fatalf("resets = %d", p.resets)
	}
}

func TestClockSaveRestore(t *testing.T) {
	var c Clock
	c.Advance()
	c.Advance()
	s := c.SaveInto(nil)
	c.Advance()
	c.Restore(s)
	if c.Now() != 2 {
		t.Fatalf("restored Now = %d", c.Now())
	}
}

func TestClockRestoreBadTypePanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Fatal("bad snapshot must panic")
		}
	}()
	c.Restore("x")
}

func TestStepReturnsCompletedCycle(t *testing.T) {
	var k Kernel
	if got := k.Step(); got != 0 {
		t.Fatalf("first Step = %d", got)
	}
	if got := k.Step(); got != 1 {
		t.Fatalf("second Step = %d", got)
	}
}
