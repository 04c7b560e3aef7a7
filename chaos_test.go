package coemu_test

import (
	"encoding/json"
	"errors"
	"testing"

	"coemu"
	"coemu/internal/channel"
	"coemu/internal/faultplan"
	"coemu/internal/service"
)

// Differential tests for channel fault injection. The contract: fault
// injection is a host-side chaos surface — a run that survives its
// faults (duplicates dropped, delays absorbed) produces the
// byte-identical report of a fault-free run, and a fault the protocol
// cannot absorb (bit corruption) surfaces as a clean typed error, not
// silent divergence.

// TestChannelFaultsBitIdentical runs every example spec with an
// aggressive survivable plan (every frame duplicated, some delayed)
// and requires byte-identical reports against the plain wire-codec
// run.
func TestChannelFaultsBitIdentical(t *testing.T) {
	plan := &faultplan.ChannelFault{Duplicate: 1, Delay: 0.01, MaxDelayUS: 5}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			want, _ := runSpec(t, sp, func(c *coemu.Config) { c.Transport = channel.NewQueues() })
			got, _ := runSpec(t, sp, func(c *coemu.Config) {
				c.ChannelFaults = plan
				c.ChannelFaultSeed = 7
			})
			if string(got) != string(want) {
				t.Errorf("faulted report differs from fault-free:\nfaulted: %s\nclean:   %s", got, want)
			}
		})
	}
}

// TestChannelFaultCorruptionSurfaces forces a bit flip on the first
// frame and requires the run to fail with the frame-corruption
// sentinel instead of diverging.
func TestChannelFaultCorruptionSurfaces(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	d, cfg, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChannelFaults = &faultplan.ChannelFault{Corrupt: 1}
	_, err = coemu.Run(d, cfg, sp.Run.Cycles)
	if !errors.Is(err, channel.ErrFrameCorrupt) {
		t.Fatalf("run err = %v, want channel.ErrFrameCorrupt", err)
	}
}

// TestChannelFaultsDeterministic pins the seed contract: the same plan
// and seed either survive identically or fail identically, run after
// run.
func TestChannelFaultsDeterministic(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	run := func() (string, string) {
		d, cfg, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cfg.ChannelFaults = &faultplan.ChannelFault{Corrupt: 0.002, Duplicate: 0.5}
		cfg.ChannelFaultSeed = 1234
		rep, err := coemu.Run(d, cfg, sp.Run.Cycles)
		if err != nil {
			return "", err.Error()
		}
		b, err := json.Marshal(service.NewReportView(rep))
		if err != nil {
			t.Fatal(err)
		}
		return string(b), ""
	}
	rep1, err1 := run()
	rep2, err2 := run()
	if rep1 != rep2 || err1 != err2 {
		t.Fatalf("seeded fault runs diverged:\nrun1: rep=%q err=%q\nrun2: rep=%q err=%q", rep1, rep2, err1, err2)
	}
}
