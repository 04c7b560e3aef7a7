package predict

import (
	"testing"

	"coemu/internal/amba"
)

func TestLastValue(t *testing.T) {
	var l LastValue
	if l.Predict() != 0 {
		t.Fatal("initial prediction must be 0")
	}
	l.Observe(0b101)
	if l.Predict() != 0b101 {
		t.Fatal("last value not tracked")
	}
	s := l
	l.Observe(0b111)
	l = s
	if l.Predict() != 0b101 {
		t.Fatal("restore failed")
	}
}

// TestSecondCycle: only the first cycle of a non-OKAY response (HREADY
// low) has a predicted successor, the same response with HREADY high
// and no read data.
func TestSecondCycle(t *testing.T) {
	for _, resp := range []amba.Resp{amba.RespError, amba.RespRetry, amba.RespSplit} {
		got, ok := SecondCycle(amba.SlaveReply{Ready: false, Resp: resp, RData: 0x1234})
		if want := (amba.SlaveReply{Ready: true, Resp: resp}); !ok || got != want {
			t.Fatalf("%v first cycle: second %v (%v), want %v", resp, got, ok, want)
		}
		if _, ok := SecondCycle(amba.SlaveReply{Ready: true, Resp: resp}); ok {
			t.Fatalf("%v second cycle: predicted a third", resp)
		}
	}
	for _, ready := range []bool{false, true} {
		if _, ok := SecondCycle(amba.SlaveReply{Ready: ready, Resp: amba.RespOkay}); ok {
			t.Fatalf("OKAY (ready %v): predicted a second cycle", ready)
		}
	}
}

func TestFaultInjectorExtremes(t *testing.T) {
	f := NewFaultInjector(1, 1)
	for i := 0; i < 1000; i++ {
		if f.Mispredict() {
			t.Fatal("p=1 must never mispredict")
		}
	}
	g := NewFaultInjector(0, 1)
	for i := 0; i < 1000; i++ {
		if !g.Mispredict() {
			t.Fatal("p=0 must always mispredict")
		}
	}
	checks, faults := g.Stats()
	if checks != 1000 || faults != 1000 {
		t.Fatalf("stats %d/%d", checks, faults)
	}
}

func TestFaultInjectorRate(t *testing.T) {
	f := NewFaultInjector(0.9, 7)
	const n = 100000
	faults := 0
	for i := 0; i < n; i++ {
		if f.Mispredict() {
			faults++
		}
	}
	rate := float64(faults) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("fault rate %g, want ~0.10", rate)
	}
	if f.Accuracy() != 0.9 {
		t.Fatal("accuracy accessor")
	}
}

func TestFaultInjectorBadAccuracyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accuracy > 1 must panic")
		}
	}()
	NewFaultInjector(1.5, 1)
}
