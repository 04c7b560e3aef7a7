package coemu_test

import (
	"testing"

	"coemu"
)

// Rollback-heavy runs checked cycle for cycle against the monolithic
// reference model (RunReference). Every store and restore goes through
// the one snapshot protocol (rollback.Registry.SaveInto/Restore), so a
// capture that misses state, or a restore that rewinds it wrongly,
// shows up as a diverging committed cycle. The names date from the
// delta-snapshot cadence these tests once swept; canonical report bytes
// are pinned across builds by TestReportDigestsPinned.

// runAgainstReference runs d under cfg with the trace and the protocol
// checker on and fails on the first committed cycle that differs from
// the reference model's.
func runAgainstReference(t *testing.T, d coemu.Design, cfg coemu.Config, cycles int64) *coemu.Report {
	t.Helper()
	want, err := coemu.RunReference(d, cycles)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	cfg.KeepTrace = true
	cfg.CheckProtocol = true
	rep, err := coemu.Run(d, cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTraces("ref", "split", want, rep.Trace); d != "" {
		t.Fatalf("trace diverges from the reference: %s", d)
	}
	return rep
}

// runSpecAgainstReference compiles sp, applies mutate, and checks the
// run against the reference model.
func runSpecAgainstReference(t *testing.T, sp *coemu.Spec, mutate func(*coemu.Config)) *coemu.Report {
	t.Helper()
	d, cfg, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return runAgainstReference(t, d, cfg, sp.Run.Cycles)
}

// TestDeltaSweepBitIdentical checks every example spec at its own
// config against the reference model.
func TestDeltaSweepBitIdentical(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			runSpecAgainstReference(t, sp, nil)
		})
	}
}

// TestDeltaSweepUnderInjectedFaultStorm repeats the check under a
// pinned-accuracy rollback storm on every example spec: with every
// other check injected wrong, each transition's snapshot is restored
// almost as often as it is taken.
func TestDeltaSweepUnderInjectedFaultStorm(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			rep := runSpecAgainstReference(t, sp, stormConfig)
			if rep.Stats.Rollbacks == 0 {
				t.Fatal("the storm produced no rollbacks; the check would prove nothing")
			}
		})
	}
}

// TestDeltaSweepOrganicStorm runs the rollback-storm workload: a
// jittery slave the wait model cannot track, so the leader rolls back
// organically and rollback distances vary with the jitter PRNG.
func TestDeltaSweepOrganicStorm(t *testing.T) {
	const cycles = 20000
	jitter := coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name:   "dma",
			Domain: coemu.AccDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
					coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name:      "flaky",
			Domain:    coemu.SimDomain,
			Region:    coemu.Region{Lo: 0, Hi: 0x80000},
			New:       func() coemu.Slave { return coemu.NewJitterMemory("flaky", 1, 2, 7) },
			WaitFirst: 1, WaitNext: 1,
		}},
	}
	rep := runAgainstReference(t, jitter, coemu.Config{Mode: coemu.ALS}, cycles)
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("jitter produced no rollbacks; the check would prove nothing")
	}
}

// TestDeltaSweepMemoryInLeader puts the memory inside the leader
// domain — a writer, a reader and the memory all local to the
// accelerator, the simulator side empty — so every run-ahead cycle
// lands write data in the leader's memory and every injected rollback
// rewinds it through the memory's copy-on-write page stash. The writer
// wraps a 4 KB window with fresh data on every pass and the reader
// trails it, so a page the stash failed to rewind surfaces as read
// data that differs from the reference.
func TestDeltaSweepMemoryInLeader(t *testing.T) {
	const cycles = 10000
	win := coemu.Window{Lo: 0, Hi: 0x1000}
	stream := func(write bool) func() coemu.Generator {
		return func() coemu.Generator {
			return coemu.NewStream(win, write, coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
		}
	}
	design := coemu.Design{
		Masters: []coemu.MasterSpec{
			{Name: "dma", Domain: coemu.AccDomain, NewGen: stream(true)},
			{Name: "rd", Domain: coemu.AccDomain, NewGen: stream(false)},
		},
		Slaves: []coemu.SlaveSpec{{
			Name:   "mem",
			Domain: coemu.AccDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
	rep := runAgainstReference(t, design, coemu.Config{Mode: coemu.ALS, Accuracy: 0.5, FaultSeed: 3}, cycles)
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("injector produced no rollbacks; the check would prove nothing")
	}
}

// TestDeltaTraceEquivalence runs the idle-free gapped stream at
// accuracy 0.6 with tracing and the protocol checker on.
func TestDeltaTraceEquivalence(t *testing.T) {
	const cycles = 10000
	rep := runAgainstReference(t, gappedStreamDesign(0),
		coemu.Config{Mode: coemu.ALS, Accuracy: 0.6, FaultSeed: 17}, cycles)
	if rep.Stats.Rollbacks == 0 {
		t.Fatal("no rollbacks; trace equivalence would prove nothing")
	}
}
