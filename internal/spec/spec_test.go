package spec

import (
	"encoding/json"
	"strings"
	"testing"

	"coemu/internal/core"
)

// streamSpecJSON is the canonical ALS configuration (an accelerator
// write-stream into a simulator memory) in spec form.
const streamSpecJSON = `{
  "name": "als-stream",
  "design": {
    "masters": [
      {"name": "dma", "domain": "acc",
       "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
                     "write": true, "burst": "INCR8", "bits": 32}}
    ],
    "slaves": [
      {"name": "mem", "domain": "sim", "kind": "sram",
       "region": {"lo": 0, "hi": "0x80000"}}
    ]
  },
  "run": {"mode": "als", "cycles": 5000}
}`

func parseOK(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseAndCompile(t *testing.T) {
	s := parseOK(t, streamSpecJSON)
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Masters) != 1 || len(d.Slaves) != 1 {
		t.Fatalf("compiled %d masters / %d slaves", len(d.Masters), len(d.Slaves))
	}
	if cfg.Mode != core.ALS {
		t.Fatalf("mode %v, want ALS", cfg.Mode)
	}
	if s.Run.Cycles != 5000 {
		t.Fatalf("cycles %d", s.Run.Cycles)
	}
	// The compiled design must pass the engine's own validation and run.
	rep, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycles != 200 {
		t.Fatalf("ran %d cycles", out.Cycles)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(raw map[string]any)
		want string // substring the error must contain ("" = any error)
	}{
		{"unknown field", func(m map[string]any) { m["bogus"] = 1 }, ""},
		{"unknown mode", func(m map[string]any) { m["run"].(map[string]any)["mode"] = "warp" }, ""},
		{"zero cycles", func(m map[string]any) { m["run"].(map[string]any)["cycles"] = 0 }, ""},
		{"no masters", func(m map[string]any) {
			m["design"].(map[string]any)["masters"] = []any{}
		}, ""},
		{"unknown generator", func(m map[string]any) {
			gen := master0(m)["generator"].(map[string]any)
			gen["kind"] = "quantum"
		}, ""},
		{"missing window", func(m map[string]any) {
			gen := master0(m)["generator"].(map[string]any)
			delete(gen, "window")
		}, ""},
		{"bad domain", func(m map[string]any) { master0(m)["domain"] = "fpga" }, ""},
		{"accuracy out of range", func(m map[string]any) {
			m["run"].(map[string]any)["accuracy"] = 1.5
		}, ""},
		// Fields removed from the schema fail strict decoding by name.
		{"stale delta_cadence", func(m map[string]any) {
			m["run"].(map[string]any)["delta_cadence"] = 16
		}, "delta_cadence"},
		{"stale workers", func(m map[string]any) {
			m["run"].(map[string]any)["workers"] = 4
		}, "workers"},
		{"sim_speed overflows cycle time", func(m map[string]any) {
			m["run"].(map[string]any)["sim_speed"] = 1e-11
		}, "sim_speed"},
		{"acc_speed overflows cycle time", func(m map[string]any) {
			m["run"].(map[string]any)["acc_speed"] = 1e-11
		}, "acc_speed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal([]byte(streamSpecJSON), &m); err != nil {
				t.Fatal(err)
			}
			tc.edit(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Parse(raw)
			if err == nil {
				t.Fatalf("accepted invalid spec (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func master0(m map[string]any) map[string]any {
	return m["design"].(map[string]any)["masters"].([]any)[0].(map[string]any)
}

func TestParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{"]", "garbage", "{}", "null"} {
		if _, err := Parse([]byte(streamSpecJSON + tail)); err == nil {
			t.Fatalf("accepted spec with trailing %q", tail)
		}
	}
	// Trailing whitespace is fine.
	if _, err := Parse([]byte(streamSpecJSON + "\n\t \n")); err != nil {
		t.Fatalf("rejected trailing whitespace: %v", err)
	}
}

func TestCanonicalHashDeterministic(t *testing.T) {
	a := parseOK(t, streamSpecJSON)
	ha, err := a.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := parseOK(t, streamSpecJSON).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("same spec hashed differently: %s vs %s", ha, hb)
	}
	// Key order, whitespace, hex-vs-decimal addresses, the non-semantic
	// name, and explicitly-written defaults must not change the hash.
	reordered := `{
	  "run": {"cycles": 5000, "mode": "ALS", "sim_speed": 1e6,
	          "acc_speed": 1e7, "lob_depth": 64, "accuracy": 1},
	  "name": "renamed",
	  "design": {
	    "slaves": [{"kind": "sram", "region": {"hi": 524288, "lo": 0},
	                "name": "mem", "domain": "sim"}],
	    "masters": [{"generator": {"bits": 32, "burst": "incr8",
	                               "write": true,
	                               "window": {"hi": 262144, "lo": 0},
	                               "kind": "stream"},
	                 "domain": "acc", "name": "dma"}],
	    "owns_default": "sim"
	  }
	}`
	hc, err := parseOK(t, reordered).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if hc != ha {
		t.Fatalf("equivalent spec hashed differently: %s vs %s", hc, ha)
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := parseOK(t, streamSpecJSON)
	h0, _ := base.CanonicalHash()
	edits := []func(*Spec){
		func(s *Spec) { s.Run.Cycles = 6000 },
		func(s *Spec) { s.Run.Mode = "sla" },
		func(s *Spec) { s.Run.LOBDepth = 128 },
		func(s *Spec) { s.Run.Accuracy = 0.9 },
		func(s *Spec) { s.Design.Masters[0].Generator.Write = false },
		func(s *Spec) { s.Design.Masters[0].Generator.Window.Hi = 0x20000 },
		func(s *Spec) { s.Design.Slaves[0].Domain = "acc"; s.Design.Masters[0].Domain = "sim" },
	}
	for i, edit := range edits {
		s := parseOK(t, streamSpecJSON)
		edit(s)
		h, err := s.CanonicalHash()
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if h == h0 {
			t.Fatalf("edit %d did not change the hash", i)
		}
	}
	// The fault seed is inert at accuracy 1 but meaningful below it.
	s := parseOK(t, streamSpecJSON)
	s.Run.FaultSeed = 99
	if h, _ := s.CanonicalHash(); h != h0 {
		t.Fatal("fault seed changed the hash of an organic-accuracy run")
	}
	s.Run.Accuracy = 0.9
	ha, _ := s.CanonicalHash()
	s.Run.FaultSeed = 100
	if hb, _ := s.CanonicalHash(); hb == ha {
		t.Fatal("fault seed ignored at pinned accuracy")
	}
}

func TestModeNames(t *testing.T) {
	want := map[string]core.Mode{
		"conservative": core.Conservative,
		"sla":          core.SLA,
		"als":          core.ALS,
		"auto":         core.Auto,
	}
	for name, mode := range want {
		if got := core.Mode(modeNames[name]); got != mode {
			t.Fatalf("modeNames[%q] = %v, want %v", name, got, mode)
		}
	}
	if len(modeNames) != len(want) {
		t.Fatalf("modeNames has %d entries, want %d", len(modeNames), len(want))
	}
}

func TestAllKindsCompile(t *testing.T) {
	src := `{
	  "design": {
	    "masters": [
	      {"name": "m-stream", "domain": "acc",
	       "generator": {"kind": "stream", "window": {"lo": 0, "hi": 4096}, "write": true, "burst": "INCR4"}},
	      {"name": "m-dma", "domain": "sim",
	       "generator": {"kind": "dma", "src": {"lo": 0, "hi": 4096}, "dst": {"lo": "0x8000", "hi": "0x9000"}, "burst": "INCR4", "gap": 2}},
	      {"name": "m-cpu", "domain": "sim",
	       "generator": {"kind": "cpu", "windows": [{"lo": 0, "hi": 4096}], "write_ratio": 0.5, "max_gap": 3, "seed": 7}},
	      {"name": "m-script", "domain": "acc",
	       "generator": {"kind": "script", "script": "W 0x100 INCR4 32\nR 0x100 INCR4 32"}}
	    ],
	    "slaves": [
	      {"name": "s-sram", "domain": "sim", "kind": "sram", "region": {"lo": 0, "hi": "0x2000"}},
	      {"name": "s-mem", "domain": "acc", "kind": "memory", "region": {"lo": "0x8000", "hi": "0xA000"}, "wait_first": 2, "wait_next": 1},
	      {"name": "s-jit", "domain": "sim", "kind": "jitter", "region": {"lo": "0xA000", "hi": "0xB000"}, "base": 1, "spread": 2, "seed": 3, "wait_first": 1, "wait_next": 1},
	      {"name": "s-retry", "domain": "acc", "kind": "retry", "region": {"lo": "0xB000", "hi": "0xC000"}, "waits": 1, "retry_every": 4},
	      {"name": "s-split", "domain": "sim", "kind": "split", "region": {"lo": "0xC000", "hi": "0xD000"}, "waits": 1, "split_every": 4, "release_after": 8, "wait_first": 1, "wait_next": 1},
	      {"name": "s-err", "domain": "acc", "kind": "error", "region": {"lo": "0xD000", "hi": "0xE000"}},
	      {"name": "s-irq", "domain": "acc", "kind": "irq", "region": {"lo": "0xF000", "hi": "0xF100"}, "irq_mask": 1, "wait_first": 1, "wait_next": 1}
	    ]
	  },
	  "run": {"mode": "auto", "cycles": 500}
	}`
	s := parseOK(t, src)
	d, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Slaves[4].SplitCapable {
		t.Fatal("split slave not marked SplitCapable")
	}
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(s.Run.Cycles); err != nil {
		t.Fatal(err)
	}
}

func TestKindLists(t *testing.T) {
	gk := strings.Join(GeneratorKinds(), ",")
	if gk != "cpu,dma,script,stream" {
		t.Fatalf("generator kinds: %s", gk)
	}
	sk := strings.Join(SlaveKinds(), ",")
	if sk != "error,irq,jitter,memory,retry,split,sram" {
		t.Fatalf("slave kinds: %s", sk)
	}
}

func TestCycleBatchNormalizationAndHash(t *testing.T) {
	// Omitted cycle_batch normalizes to the engine default.
	s := parseOK(t, streamSpecJSON)
	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Run.CycleBatch != 64 {
		t.Fatalf("normalized cycle_batch = %d, want 64", n.Run.CycleBatch)
	}
	// The knob is host-side only: reports are bit-identical at every
	// setting, so it must not split the result cache.
	h0, _ := s.CanonicalHash()
	s1 := parseOK(t, streamSpecJSON)
	s1.Run.CycleBatch = 1
	h1, err := s1.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h0 {
		t.Fatal("cycle_batch changed the canonical hash")
	}
	// But it still reaches the compiled engine config.
	_, cfg, err := s1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CycleBatch != 1 {
		t.Fatalf("compiled CycleBatch = %d, want 1", cfg.CycleBatch)
	}
	// Negative values are rejected.
	bad := parseOK(t, streamSpecJSON)
	bad.Run.CycleBatch = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative cycle_batch validated")
	}
}

func TestTraceKnobsHostOnlyAndHashExcluded(t *testing.T) {
	// The tracer is a host-side observer: reports are bit-identical
	// with and without it (pinned by the tracer differential test in
	// internal/core), so trace/trace_ring must not split the result
	// cache. Both hash as absent, so canonical hashes — and every entry
	// of a pre-existing persistent store — are unchanged from before
	// the knobs existed.
	h0, _ := parseOK(t, streamSpecJSON).CanonicalHash()
	s1 := parseOK(t, streamSpecJSON)
	s1.Run.Trace = true
	s1.Run.TraceRing = 4096
	h1, err := s1.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h0 {
		t.Fatal("trace knobs changed the canonical hash")
	}
	// Normalization preserves the knobs so the executing layer (which
	// attaches the recorder) still sees them.
	n, err := s1.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !n.Run.Trace || n.Run.TraceRing != 4096 {
		t.Fatalf("normalization dropped trace knobs: trace=%v ring=%d", n.Run.Trace, n.Run.TraceRing)
	}
	// Negative ring sizes are rejected.
	bad := parseOK(t, streamSpecJSON)
	bad.Run.TraceRing = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative trace_ring validated")
	}
}
