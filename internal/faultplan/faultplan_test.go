package faultplan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFullPlan(t *testing.T) {
	doc := `{
		"seed": 42,
		"service": {"worker_panic": 0.2, "slow_run": 0.2, "slow_delay_ms": 50},
		"store": {"write_error": 0.1, "torn_write": 0.1}
	}`
	p, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d, want 42", p.Seed)
	}
	if p.Service == nil || p.Service.WorkerPanic != 0.2 || p.Service.SlowDelayMS != 50 {
		t.Fatalf("service section = %+v", p.Service)
	}
	if p.Store == nil || p.Store.TornWrite != 0.1 {
		t.Fatalf("store section = %+v", p.Store)
	}
}

func TestParseEmptyPlanIsValid(t *testing.T) {
	p, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Service != nil || p.Store != nil {
		t.Fatalf("empty plan grew sections: %+v", p)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"store": {"write_eror": 0.5}}`, "unknown field"},
		{"probability above one", `{"service": {"slow_run": 1.5}}`, "probability"},
		{"negative probability", `{"service": {"worker_panic": -0.1}}`, "probability"},
		{"negative slow delay", `{"service": {"slow_run": 0.5, "slow_delay_ms": -3}}`, "slow_delay_ms"},
		{"store probability", `{"store": {"write_error": 2}}`, "probability"},
		{"not json", `{`, "faultplan"},
		// A section removed from the schema fails strict decoding by name.
		{"removed channel section", `{"channel": {"corrupt": 0.5}}`, `"channel"`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNilPlanValidates(t *testing.T) {
	var p *Plan
	if err := p.Validate(); err != nil {
		t.Fatalf("nil plan Validate: %v", err)
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 7, "store": {"write_error": 0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Seed != 7 || p.Store == nil || p.Store.WriteError != 0.5 {
		t.Fatalf("loaded plan = %+v", p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestMixDerivesDistinctStreams(t *testing.T) {
	seen := make(map[uint64]uint64)
	for salt := uint64(0); salt < 100; salt++ {
		v := Mix(42, salt)
		if prev, dup := seen[v]; dup {
			t.Fatalf("Mix(42,%d) == Mix(42,%d) == %#x", salt, prev, v)
		}
		seen[v] = salt
	}
	if Mix(42, 3) != Mix(42, 3) {
		t.Fatal("Mix is not deterministic")
	}
	if Mix(42, 3) == Mix(43, 3) {
		t.Fatal("Mix ignores the seed")
	}
}
