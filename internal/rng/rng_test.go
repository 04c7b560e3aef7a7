package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestSaveRestore(t *testing.T) {
	r := New(7)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	s := r.SaveInto(nil)
	var first []uint64
	for i := 0; i < 50; i++ {
		first = append(first, r.Uint64())
	}
	r.Restore(s)
	for i := 0; i < 50; i++ {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(99)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) frequency = %g", frac)
	}
}

func TestRestoreBadTypePanics(t *testing.T) {
	r := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad snapshot must panic")
		}
	}()
	r.Restore("nope")
}
