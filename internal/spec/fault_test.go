package spec

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"coemu/internal/faultplan"
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

func TestFaultPlanValidationAndCompile(t *testing.T) {
	raw := withRun(t, map[string]any{"fault_plan": map[string]any{
		"seed":    9,
		"channel": map[string]any{"duplicate": 0.5},
	}})
	s, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, cfg, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cfg.ChannelFaults == nil || cfg.ChannelFaults.Duplicate != 0.5 || cfg.ChannelFaultSeed != 9 {
		t.Fatalf("compiled channel faults = %+v seed %d", cfg.ChannelFaults, cfg.ChannelFaultSeed)
	}

	bad := withRun(t, map[string]any{"fault_plan": map[string]any{
		"channel": map[string]any{"corrupt": 2.0},
	}})
	if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "fault_plan") {
		t.Fatalf("bad plan: err = %v, want fault_plan error", err)
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
		{"fault_plan": map[string]any{"seed": 3, "channel": map[string]any{"duplicate": 1.0}}},
		{"timeout": "1m", "fault_plan": map[string]any{"service": map[string]any{"worker_panic": 0.5}}},
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
	s, err := Parse(withRun(t, map[string]any{
		"timeout":    "10s",
		"fault_plan": map[string]any{"store": map[string]any{"write_error": 0.25}},
	}))
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
	if n.Run.FaultPlan == nil || n.Run.FaultPlan.Store == nil || n.Run.FaultPlan.Store.WriteError != 0.25 {
		t.Fatalf("Normalized dropped fault plan: %+v", n.Run.FaultPlan)
	}
}

func TestFaultPlanRejectsUnknownFields(t *testing.T) {
	// The plan is decoded as part of the spec; spec-level
	// DisallowUnknownFields must reach into it.
	raw := withRun(t, map[string]any{"fault_plan": map[string]any{
		"channel": map[string]any{"corupt": 0.5},
	}})
	if _, err := Parse(raw); err == nil {
		t.Fatal("accepted fault plan with unknown field")
	}
	// And standalone parsing agrees.
	if _, err := faultplan.Parse([]byte(`{"channel": {"corupt": 0.5}}`)); err == nil {
		t.Fatal("faultplan.Parse accepted unknown field")
	}
}
