package sim

import "testing"

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
	var c Clock
	if got := c.Advance(); got != 0 {
		t.Fatalf("first Advance = %d", got)
	}
	if got := c.Advance(); got != 1 {
		t.Fatalf("second Advance = %d", got)
	}
	if c.Now() != 2 {
		t.Fatalf("Now = %d", c.Now())
	}
}
