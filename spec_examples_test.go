package coemu_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"coemu"
	"coemu/internal/service"
)

// Golden round-trip tests: every spec file under examples/ must compile
// to a run whose modeled metrics — simulator/accelerator/channel/state
// time per committed cycle, behavioral counters, channel statistics —
// are identical to the closure-built design it mirrors. The comparison
// serializes both reports through the service's deterministic JSON view
// and requires byte equality.

// closure equivalents of each examples/<name>/spec.json, mirroring the
// designs in the example programs.
var exampleDesigns = map[string]struct {
	design func() coemu.Design
	cfg    coemu.Config
	cycles int64
}{
	"quickstart": {
		design: func() coemu.Design {
			return coemu.Design{
				Masters: []coemu.MasterSpec{{
					Name: "dma", Domain: coemu.AccDomain,
					NewGen: func() coemu.Generator {
						return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x10000}, true,
							coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
					},
				}},
				Slaves: []coemu.SlaveSpec{{
					Name: "mem", Domain: coemu.SimDomain,
					Region: coemu.Region{Lo: 0, Hi: 0x20000},
					New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
				}},
			}
		},
		cfg:    coemu.Config{Mode: coemu.ALS},
		cycles: 50000,
	},
	"dma-stream": {
		design: func() coemu.Design {
			return coemu.Design{
				Masters: []coemu.MasterSpec{{
					Name: "video-dma", Domain: coemu.AccDomain,
					NewGen: func() coemu.Generator {
						return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x100000}, true,
							coemu.BurstIncr16, coemu.Size32, 0, 1, 0)
					},
				}},
				Slaves: []coemu.SlaveSpec{{
					Name: "framebuf", Domain: coemu.SimDomain,
					Region:    coemu.Region{Lo: 0, Hi: 0x200000},
					New:       func() coemu.Slave { return coemu.NewMemory("framebuf", 1, 0) },
					WaitFirst: 1, WaitNext: 0,
				}},
			}
		},
		cfg:    coemu.Config{Mode: coemu.ALS, LOBDepth: 64},
		cycles: 40000,
	},
	"multimaster": {
		design: func() coemu.Design {
			return coemu.Design{
				Masters: []coemu.MasterSpec{
					{
						Name: "vdma", Domain: coemu.AccDomain,
						NewGen: func() coemu.Generator {
							return coemu.NewStream(coemu.Window{Lo: 0x00000, Hi: 0x08000},
								true, coemu.BurstIncr8, coemu.Size32, 0, 4, 0)
						},
					},
					{
						Name: "cpu", Domain: coemu.SimDomain,
						NewGen: func() coemu.Generator {
							return coemu.NewCPU([]coemu.Window{
								{Lo: 0x00000, Hi: 0x08000},
								{Lo: 0x10000, Hi: 0x12000},
							}, 0.6, 5, 0, 2024)
						},
					},
					{
						Name: "pdma", Domain: coemu.AccDomain,
						NewGen: func() coemu.Generator {
							return coemu.NewDMACopy(
								coemu.Window{Lo: 0x00000, Hi: 0x04000},
								coemu.Window{Lo: 0x10000, Hi: 0x11000},
								coemu.BurstIncr4, 6, 0)
						},
					},
				},
				Slaves: []coemu.SlaveSpec{
					{
						Name: "dram", Domain: coemu.SimDomain,
						Region:    coemu.Region{Lo: 0x00000, Hi: 0x10000},
						New:       func() coemu.Slave { return coemu.NewMemory("dram", 2, 1) },
						WaitFirst: 2, WaitNext: 1,
					},
					{
						Name: "spm", Domain: coemu.AccDomain,
						Region: coemu.Region{Lo: 0x10000, Hi: 0x14000},
						New:    func() coemu.Slave { return coemu.NewSRAM("spm") },
					},
					{
						Name: "timer", Domain: coemu.AccDomain,
						Region:  coemu.Region{Lo: 0x20000, Hi: 0x20100},
						New:     func() coemu.Slave { return coemu.NewIRQPeriph("timer", 0x1) },
						IRQMask: 0x1, WaitFirst: 1, WaitNext: 1,
					},
				},
			}
		},
		cfg:    coemu.Config{Mode: coemu.Auto},
		cycles: 30000,
	},
	"rollback-storm": {
		design: func() coemu.Design {
			return coemu.Design{
				Masters: []coemu.MasterSpec{{
					Name: "dma", Domain: coemu.AccDomain,
					NewGen: func() coemu.Generator {
						return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000},
							true, coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
					},
				}},
				Slaves: []coemu.SlaveSpec{{
					Name: "flaky", Domain: coemu.SimDomain,
					Region:    coemu.Region{Lo: 0, Hi: 0x80000},
					New:       func() coemu.Slave { return coemu.NewJitterMemory("flaky", 1, 2, 7) },
					WaitFirst: 1, WaitNext: 1,
				}},
			}
		},
		cfg:    coemu.Config{Mode: coemu.ALS},
		cycles: 30000,
	},
	"split-latency": {
		design: func() coemu.Design {
			return coemu.Design{
				Masters: []coemu.MasterSpec{
					{
						Name: "fetcher", Domain: coemu.AccDomain,
						NewGen: func() coemu.Generator {
							return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x8000},
								true, coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
						},
					},
					{
						Name: "logger", Domain: coemu.SimDomain,
						NewGen: func() coemu.Generator {
							return coemu.NewStream(coemu.Window{Lo: 0x10000, Hi: 0x12000},
								true, coemu.BurstIncr4, coemu.Size32, 0, 1, 0)
						},
					},
				},
				Slaves: []coemu.SlaveSpec{
					{
						Name: "dramc", Domain: coemu.SimDomain,
						Region:    coemu.Region{Lo: 0, Hi: 0x10000},
						New:       func() coemu.Slave { return coemu.NewSplitMemory("dramc", 1, 4, 12) },
						WaitFirst: 1, WaitNext: 1,
						Cadence: coemu.SplitEvery(4),
					},
					{
						Name: "sram", Domain: coemu.AccDomain,
						Region: coemu.Region{Lo: 0x10000, Hi: 0x14000},
						New:    func() coemu.Slave { return coemu.NewSRAM("sram") },
					},
				},
			}
		},
		cfg:    coemu.Config{Mode: coemu.Auto},
		cycles: 30000,
	},
}

// metricBytes runs a design and serializes its report through the
// deterministic JSON view.
func metricBytes(t *testing.T, d coemu.Design, cfg coemu.Config, cycles int64) []byte {
	t.Helper()
	rep, err := coemu.Run(d, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(service.NewReportView(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestExampleSpecsMatchClosureDesigns(t *testing.T) {
	for name, golden := range exampleDesigns {
		t.Run(name, func(t *testing.T) {
			sp, err := coemu.LoadSpec(filepath.Join("examples", name, "spec.json"))
			if err != nil {
				t.Fatal(err)
			}
			d, cfg, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if sp.Run.Cycles != golden.cycles {
				t.Fatalf("spec cycles %d, golden %d", sp.Run.Cycles, golden.cycles)
			}
			got := metricBytes(t, d, cfg, sp.Run.Cycles)
			want := metricBytes(t, golden.design(), golden.cfg, golden.cycles)
			if string(got) != string(want) {
				t.Errorf("spec-compiled metrics differ from closure-built design:\nspec:    %s\nclosure: %s", got, want)
			}
		})
	}
}

// TestExampleSpecsCoverExamples pins the 1:1 pairing: every example
// program has a spec counterpart in this golden table and on disk.
func TestExampleSpecsCoverExamples(t *testing.T) {
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		if _, ok := exampleDesigns[name]; !ok {
			t.Errorf("example %q has no golden closure design in this test", name)
		}
		if _, err := coemu.LoadSpec(filepath.Join("examples", name, "spec.json")); err != nil {
			t.Errorf("example %q: %v", name, err)
		}
	}
}

func TestExampleSpecHashesStable(t *testing.T) {
	// Hash determinism across repeated loads of the same files.
	for name := range exampleDesigns {
		path := filepath.Join("examples", name, "spec.json")
		a, err := coemu.LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := coemu.LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := a.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Errorf("%s: hash unstable across loads", name)
		}
	}
	// And distinctness: the five examples are five different runs.
	seen := map[string]string{}
	for name := range exampleDesigns {
		sp, err := coemu.LoadSpec(filepath.Join("examples", name, "spec.json"))
		if err != nil {
			t.Fatal(err)
		}
		h, err := sp.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[h]; dup {
			t.Errorf("%s and %s share a canonical hash", name, other)
		}
		seen[h] = name
	}
}
