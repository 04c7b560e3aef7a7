package spec

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// withRun returns streamSpecJSON with extra fields merged into "run".
func withRun(t *testing.T, extra map[string]any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(streamSpecJSON), &m); err != nil {
		t.Fatal(err)
	}
	run := m["run"].(map[string]any)
	for k, v := range extra {
		run[k] = v
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestTimeoutValidationAndParse(t *testing.T) {
	s, err := Parse(withRun(t, map[string]any{"timeout": "30s"}))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := s.Run.JobTimeout(); got != 30*time.Second {
		t.Fatalf("JobTimeout = %v, want 30s", got)
	}
	var none Run
	if got := none.JobTimeout(); got != 0 {
		t.Fatalf("empty timeout JobTimeout = %v, want 0", got)
	}
	for _, bad := range []string{"banana", "-5s", "0s"} {
		if _, err := Parse(withRun(t, map[string]any{"timeout": bad})); err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Errorf("timeout %q: err = %v, want timeout error", bad, err)
		}
	}
}

func TestHostKnobsDoNotSplitCanonicalHash(t *testing.T) {
	base := parseOK(t, streamSpecJSON)
	want, err := base.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	variants := []map[string]any{
		{"timeout": "45s"},
		{"timeout": "1m"},
	}
	for i, extra := range variants {
		s, err := Parse(withRun(t, extra))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got, err := s.CanonicalHash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("variant %d: hash %s != base %s — host-side knobs must not split the result cache", i, got, want)
		}
	}
}

func TestNormalizedKeepsHostKnobs(t *testing.T) {
	s, err := Parse(withRun(t, map[string]any{"timeout": "10s"}))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Run.Timeout != "10s" {
		t.Fatalf("Normalized dropped timeout: %q", n.Run.Timeout)
	}
}
