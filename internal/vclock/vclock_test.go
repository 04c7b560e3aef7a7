package vclock

import (
	"strings"
	"testing"
	"time"
)

func TestLedgerChargeAndTotal(t *testing.T) {
	var l Ledger
	l.Charge(Sim, 3*time.Microsecond)
	l.Charge(Acc, time.Microsecond)
	l.Charge(Channel, 2*time.Microsecond)
	l.Charge(Sim, time.Microsecond)
	if got := l.Get(Sim); got != 4*time.Microsecond {
		t.Errorf("Sim = %v", got)
	}
	if got := l.Total(); got != 7*time.Microsecond {
		t.Errorf("Total = %v", got)
	}
	if got := l.Count(Sim); got != 2 {
		t.Errorf("Count(Sim) = %d", got)
	}
	if got := l.Count(Restore); got != 0 {
		t.Errorf("Count(Restore) = %d", got)
	}
}

func TestLedgerNegativeChargePanics(t *testing.T) {
	var l Ledger
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	l.Charge(Sim, -1)
}

func TestLedgerInvalidCategoryPanics(t *testing.T) {
	var l Ledger
	defer func() {
		if recover() == nil {
			t.Fatal("invalid category must panic")
		}
	}()
	l.Charge(Category(99), time.Second)
}

func TestLedgerPerCycleAndPerf(t *testing.T) {
	var l Ledger
	l.Charge(Sim, 10*time.Microsecond)
	if got := l.PerCycle(Sim, 10); got != time.Microsecond {
		t.Errorf("PerCycle = %v", got)
	}
	if got := l.PerCycle(Sim, 0); got != 0 {
		t.Errorf("PerCycle(0 cycles) = %v", got)
	}
	// 10 cycles in 10 µs = 1 Mcycles/s.
	if got := l.CyclesPerSecond(10); got < 0.99e6 || got > 1.01e6 {
		t.Errorf("CyclesPerSecond = %g", got)
	}
	var empty Ledger
	if empty.CyclesPerSecond(5) != 0 {
		t.Error("empty ledger must report 0 perf")
	}
}

func TestLedgerResetSnapshot(t *testing.T) {
	var l Ledger
	l.Charge(Acc, time.Second)
	snap := l.Snapshot()
	l.Charge(Acc, time.Second)
	if snap.Get(Acc) != time.Second {
		t.Error("snapshot aliased the ledger")
	}
	l.Reset()
	if l.Total() != 0 {
		t.Error("Reset left residue")
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{Sim: "Tsim", Acc: "Tacc", Store: "Tstore", Restore: "Trestore", Channel: "Tch"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if len(Categories()) != 5 {
		t.Error("Categories() must list 5 entries")
	}
	if !strings.Contains(Category(42).String(), "42") {
		t.Error("unknown category string")
	}
}

func TestLedgerString(t *testing.T) {
	var l Ledger
	l.Charge(Channel, time.Microsecond)
	s := l.String()
	if !strings.Contains(s, "Tch=1µs") && !strings.Contains(s, "Tch=1") {
		t.Errorf("String() = %q", s)
	}
	if !strings.Contains(s, "total=") {
		t.Errorf("String() = %q", s)
	}
}
