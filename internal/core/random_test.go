package core

import (
	"fmt"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/rng"
	"coemu/internal/workload"
)

// randomDesign builds a structurally random but valid design from a
// seed: 1-3 masters with random workloads and domains, 1-3 slaves of
// random kinds and domains. This is the property-test generator for the
// equivalence invariant.
func randomDesign(seed uint64) Design {
	r := rng.New(seed)
	var d Design
	d.OwnsDefault = DomainID(r.Intn(2))

	slaveKinds := []func(name string, r *rng.Source) (bus.Slave, SlaveSpec){
		func(name string, r *rng.Source) (bus.Slave, SlaveSpec) {
			return nil, SlaveSpec{Name: name, New: func() bus.Slave { return ip.NewSRAM(name) }}
		},
		func(name string, r *rng.Source) (bus.Slave, SlaveSpec) {
			f, n := r.Intn(3), r.Intn(2)
			return nil, SlaveSpec{Name: name,
				New:       func() bus.Slave { return ip.NewMemory(name, f, n) },
				WaitFirst: f, WaitNext: n}
		},
		func(name string, r *rng.Source) (bus.Slave, SlaveSpec) {
			s := r.Uint64()
			return nil, SlaveSpec{Name: name,
				New:       func() bus.Slave { return ip.NewJitterMemory(name, 1, 2, s) },
				WaitFirst: 1, WaitNext: 1}
		},
		func(name string, r *rng.Source) (bus.Slave, SlaveSpec) {
			k := 2 + r.Intn(5)
			return nil, SlaveSpec{Name: name,
				New:     func() bus.Slave { return ip.NewRetryMemory(name, 0, k) },
				Cadence: ip.RetryEvery(k)}
		},
		func(name string, r *rng.Source) (bus.Slave, SlaveSpec) {
			k, rel := 2+r.Intn(5), r.Intn(8)
			return nil, SlaveSpec{Name: name,
				New:     func() bus.Slave { return ip.NewSplitMemory(name, 0, k, rel) },
				Cadence: ip.SplitEvery(k)}
		},
	}

	nSlaves := 1 + r.Intn(3)
	for i := 0; i < nSlaves; i++ {
		name := fmt.Sprintf("s%d", i)
		_, spec := slaveKinds[r.Intn(len(slaveKinds))](name, r)
		spec.Domain = DomainID(r.Intn(2))
		spec.Region = bus.Region{
			Lo: amba.Addr(i) * 0x10000,
			Hi: amba.Addr(i)*0x10000 + 0x8000, // leave unmapped holes
		}
		d.Slaves = append(d.Slaves, spec)
	}

	windows := make([]workload.Window, 0, nSlaves)
	for _, s := range d.Slaves {
		windows = append(windows, workload.Window{Lo: s.Region.Lo, Hi: s.Region.Lo + 0x2000})
	}

	nMasters := 1 + r.Intn(3)
	for i := 0; i < nMasters; i++ {
		name := fmt.Sprintf("m%d", i)
		dom := DomainID(r.Intn(2))
		kind := r.Intn(3)
		seed := r.Uint64()
		win := windows[r.Intn(len(windows))]
		// All randomness is drawn HERE, outside the closures: NewGen is
		// invoked once per build (reference and split), and a closure
		// that advanced the shared source would give the two builds
		// different workloads.
		var gen func() ip.Generator
		switch kind {
		case 0:
			write := r.Intn(2) == 0
			burst := []amba.Burst{amba.BurstIncr4, amba.BurstIncr8, amba.BurstWrap4}[r.Intn(3)]
			gap := r.Intn(3)
			gen = func() ip.Generator {
				return workload.NewStream(win, write, burst, amba.Size32, 0, gap, 0)
			}
		case 1:
			dst := windows[r.Intn(len(windows))]
			gap := r.Intn(3)
			gen = func() ip.Generator {
				return workload.NewDMACopy(win, dst, amba.BurstIncr4, gap, 0)
			}
		default:
			wr := r.Float64()
			maxGap := r.Intn(4)
			gen = func() ip.Generator {
				return workload.NewCPU(windows, wr, maxGap, 0, seed)
			}
		}
		d.Masters = append(d.Masters, MasterSpec{
			Name: name, Domain: dom, NewGen: gen, BusyEvery: []int{0, 0, 3}[r.Intn(3)],
		})
	}
	return d
}

// TestEquivalenceRandomDesigns is the repository's heaviest property
// test: random designs × random modes × random governor and accuracy
// settings, each checked cycle-exact against the monolithic reference.
func TestEquivalenceRandomDesigns(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	modes := []Mode{Conservative, SLA, ALS, Auto}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		d := randomDesign(seed * 7919)
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid design: %v", seed, err)
		}
		r := rng.New(seed)
		mode := modes[r.Intn(len(modes))]
		// Two draws are discarded so that each seed keeps its
		// configuration.
		r.Intn(2)
		r.Intn(2)
		cfg := Config{Mode: mode, Adaptive: r.Intn(2) == 0}
		if r.Intn(3) == 0 {
			cfg.Accuracy = 0.5 + r.Float64()/2
			cfg.FaultSeed = seed
		}
		t.Run(fmt.Sprintf("seed=%d/mode=%v", seed, cfg.Mode), func(t *testing.T) {
			runBoth(t, d, cfg, 400)
		})
	}
}
