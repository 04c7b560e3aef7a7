package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"coemu"
)

// TestPrintDeclineReasonsSorted renders the multimaster report (three
// decline reasons) many times and requires byte-identical output with
// the reason lines in sorted order. Go randomizes map iteration, so a
// report that ranged over Stats.Declines directly differs between
// renders, and the in-process and -remote-domain outputs of one spec
// would not compare equal.
func TestPrintDeclineReasonsSorted(t *testing.T) {
	s, err := coemu.LoadSpec("../../examples/multimaster/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coemu.Run(d, cfg, s.Run.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats.Declines) < 2 {
		t.Fatalf("multimaster has %d decline reasons, need at least 2 to test ordering", len(rep.Stats.Declines))
	}

	var first bytes.Buffer
	print(&first, rep)
	reasons := declineLines(first.String())
	if len(reasons) != len(rep.Stats.Declines) {
		t.Fatalf("printed %d decline reasons, want %d:\n%s", len(reasons), len(rep.Stats.Declines), first.String())
	}
	if !slices.IsSorted(reasons) {
		t.Fatalf("decline reasons not sorted:\n%s", strings.Join(reasons, "\n"))
	}
	for i := 0; i < 32; i++ {
		var again bytes.Buffer
		print(&again, rep)
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i+1, again.String(), first.String())
		}
	}
}

// declineLines returns the lines of the report's "decline reasons:"
// block, in printed order.
func declineLines(report string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.TrimSpace(line) == "decline reasons:":
			in = true
		case in && strings.HasPrefix(line, "    "):
			out = append(out, strings.TrimSpace(line))
		case in:
			return out
		}
	}
	return out
}
