package coemu_test

import (
	"fmt"
	"testing"

	"coemu"
	"coemu/internal/core"
)

// The RETRY/SPLIT cadence grid. The leader predicts a remote slave's
// two-cycle responses by running the slave's timing automaton with the
// cadence its spec declares. Each cell puts an accelerator INCR4 write
// stream into a simulator RETRY or SPLIT memory beside a simulator
// INCR4 write stream into an accelerator SRAM, so both domains drive
// masters and the SPLIT memory's parked master leaves the bus to the
// other one.

// cadenceGridDesign is the grid cell for a RETRY (split false) or SPLIT
// memory that waits waits cycles per beat and answers the first attempt
// of every every-th beat with the two-cycle response; a SPLIT releases
// its master 12 cycles later.
func cadenceGridDesign(split bool, every, waits int) coemu.Design {
	mem := coemu.SlaveSpec{
		Name: "mem", Domain: coemu.SimDomain,
		Region:    coemu.Region{Lo: 0, Hi: 0x10000},
		New:       func() coemu.Slave { return coemu.NewRetryMemory("mem", waits, every) },
		WaitFirst: waits, WaitNext: waits,
		Cadence: coemu.RetryEvery(every),
	}
	if split {
		mem.New = func() coemu.Slave { return coemu.NewSplitMemory("mem", waits, every, 12) }
		mem.Cadence = coemu.SplitEvery(every)
	}
	return coemu.Design{
		Masters: []coemu.MasterSpec{
			{Name: "stream", Domain: coemu.AccDomain, NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x8000}, true, coemu.BurstIncr4, coemu.Size32, 0, 5, 0)
			}},
			{Name: "logger", Domain: coemu.SimDomain, NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0x10000, Hi: 0x12000}, true, coemu.BurstIncr4, coemu.Size32, 0, 3, 0)
			}},
		},
		Slaves: []coemu.SlaveSpec{
			mem,
			{Name: "sram", Domain: coemu.AccDomain, Region: coemu.Region{Lo: 0x10000, Hi: 0x14000},
				New: func() coemu.Slave { return coemu.NewSRAM("sram") }},
		},
	}
}

// TestRemoteCadenceGrid runs every cell of {RETRY, SPLIT} × every {1, 2,
// 3, 5} × waits {0, 1, 2} in ALS and auto. Every run must match the
// reference model and reconcile its ledger. Under ALS the accelerator
// leads the stream through the remote slave's responses, which it now
// predicts, so a cell rolls back at most 3 times (at model revision 5:
// 379 to 3,334). Auto also lets the simulator lead, and there the
// remote request lines around the stream's reissues after a RETRY or
// SPLIT still defeat the master-side predictor (243 to 2,221 rollbacks
// a cell, all of them request-line misses), so auto checks correctness
// only.
func TestRemoteCadenceGrid(t *testing.T) {
	const cycles = 20000
	for _, split := range []bool{false, true} {
		for _, every := range []int{1, 2, 3, 5} {
			for waits := 0; waits <= 2; waits++ {
				for _, mode := range []coemu.Mode{coemu.ALS, coemu.Auto} {
					kind := "retry"
					if split {
						kind = "split"
					}
					t.Run(fmt.Sprintf("%s/every=%d/waits=%d/%v", kind, every, waits, mode), func(t *testing.T) {
						d := cadenceGridDesign(split, every, waits)
						want, err := coemu.RunReference(d, cycles)
						if err != nil {
							t.Fatal(err)
						}
						cfg := coemu.Config{Mode: mode, KeepTrace: true, CheckProtocol: true}
						e, err := core.NewEngine(d, cfg)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := e.Run(cycles)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffTraces("ref", "split", want, rep.Trace); d != "" {
							t.Fatalf("trace diverges from the reference: %s", d)
						}
						checkLedger(t, e, cfg, rep)
						if mode == coemu.ALS && rep.Stats.Rollbacks > 3 {
							t.Fatalf("%d rollbacks, want at most 3", rep.Stats.Rollbacks)
						}
					})
				}
			}
		}
	}
}
