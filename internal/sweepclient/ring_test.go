package sweepclient

import (
	"fmt"
	"testing"
)

// ringHashes builds n distinct synthetic point hashes (the ring only
// needs strings; real callers pass canonical spec hashes).
func ringHashes(n int) []string {
	hs := make([]string, n)
	for i := range hs {
		hs[i] = fmt.Sprintf("%064x", i+1)
	}
	return hs
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://c", "http://a", "http://b", "http://a"})
	if err != nil {
		t.Fatal(err)
	}
	hashes := ringHashes(500)
	for _, h := range hashes {
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("owner of %s differs across member orderings: %s vs %s", h[:8], a.Owner(h), b.Owner(h))
		}
	}
	asgA, asgB := a.Assign(hashes, nil), b.Assign(hashes, nil)
	for m, idx := range asgA {
		if fmt.Sprint(asgB[m]) != fmt.Sprint(idx) {
			t.Fatalf("assignment for %s differs across member orderings", m)
		}
	}
}

func TestRingMinimalMovementOnMemberLoss(t *testing.T) {
	full, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	hashes := ringHashes(2000)
	for _, h := range hashes {
		before := full.Owner(h)
		after := reduced.Owner(h)
		if before != "http://c" && before != after {
			// Removing c may only move c's points; anything else moving
			// breaks the failover contract (survivors would re-run points
			// they already own).
			t.Fatalf("point %s moved %s -> %s though its owner survived", h[:8], before, after)
		}
		if before != after {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no point moved when a member left; c owned nothing?")
	}
}

func TestRingBoundedLoad(t *testing.T) {
	r, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	hashes := ringHashes(999)
	asg := r.Assign(hashes, nil)
	cap := 417 // ceil(1.25 * 999 / 3)
	seen := make(map[int]bool)
	for m, idx := range asg {
		if len(idx) > cap {
			t.Fatalf("member %s got %d points, above the bounded-load cap %d", m, len(idx), cap)
		}
		if len(idx) == 0 {
			t.Fatalf("member %s got no points out of %d", m, len(hashes))
		}
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("point %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(hashes) {
		t.Fatalf("assigned %d of %d points", len(seen), len(hashes))
	}
}

func TestRingCapsOverrideAndRaise(t *testing.T) {
	r, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	hashes := ringHashes(12)
	// The uniform cap is ceil(1.25 * 12 / 3) = 5; a saturated member gets
	// half of it, 2.
	asg := r.Assign(hashes, map[string]bool{"http://a": true})
	total := 0
	for m, idx := range asg {
		total += len(idx)
		if m == "http://a" && len(idx) > 2 {
			t.Fatalf("saturated member %s got %d points, want <= 2", m, len(idx))
		}
	}
	if total != len(hashes) {
		t.Fatalf("assigned %d of %d points", total, len(hashes))
	}
	// With every member saturated the halved caps sum to 6 < 12, so
	// Assign raises each cap to 4 rather than strand a point.
	all := map[string]bool{"http://a": true, "http://b": true, "http://c": true}
	total = 0
	for m, idx := range r.Assign(hashes, all) {
		total += len(idx)
		if len(idx) > 4 {
			t.Fatalf("member %s got %d points, above the raised cap 4", m, len(idx))
		}
	}
	if total != len(hashes) {
		t.Fatalf("assigned %d of %d points; caps must never strand a point", total, len(hashes))
	}
}

func TestRingRejectsBadInputs(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty membership accepted")
	}
}
