package coemu_test

import (
	"testing"
	"time"

	"coemu"
	"coemu/internal/channel"
	"coemu/internal/core"
	"coemu/internal/device"
	"coemu/internal/rollback"
	"coemu/internal/vclock"
)

// The ledger-reconciliation oracle recomputes the modeled time from the
// run's own counts: Tch from the channel's startups and words priced by
// the device stack, Tstore and Trestore from the store and restore
// counts priced by the leaders' cost models. A change that charges a
// channel access, a carried report or a snapshot without counting it
// (or counts one it never charges) fails here even when every trace
// still matches the reference.

// TestLedgerReconcilesWithCounts runs every example spec in every mode
// at its own config and under the digest test's injected storm, and
// again in each optimistic mode with the adaptive governor on, whose
// back-off stretches interleave conservative cycles with transitions.
func TestLedgerReconcilesWithCounts(t *testing.T) {
	modes := []coemu.Mode{coemu.Conservative, coemu.SLA, coemu.ALS, coemu.Auto}
	for name, sp := range exampleSpecs(t) {
		for _, mode := range modes {
			for _, adaptive := range []bool{false, true} {
				if adaptive && mode == coemu.Conservative {
					continue // the governor only backs off from optimism
				}
				for _, storm := range []bool{false, true} {
					label := name + "/" + mode.String()
					if adaptive {
						label += "/adaptive"
					}
					if storm {
						label += "/storm"
					}
					t.Run(label, func(t *testing.T) {
						d, cfg, err := sp.Compile()
						if err != nil {
							t.Fatal(err)
						}
						cfg.Mode = mode
						cfg.Adaptive = adaptive
						if storm {
							stormConfig(&cfg)
						}
						e, err := core.NewEngine(d, cfg)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := e.Run(sp.Run.Cycles)
						if err != nil {
							t.Fatal(err)
						}
						checkLedger(t, e, cfg, rep)
					})
				}
			}
		}
	}
}

// checkLedger asserts the three reconciliation identities on one run.
func checkLedger(t *testing.T, e *core.Engine, cfg coemu.Config, rep *coemu.Report) {
	t.Helper()
	stack := device.IPROVE()
	if cfg.Stack != nil {
		stack = *cfg.Stack
	}
	costs := [2]rollback.CostModel{rollback.SoftwareCost(), rollback.HardwareCost()}
	if cfg.SimCost != nil {
		costs[core.SimDomain] = *cfg.SimCost
	}
	if cfg.AccCost != nil {
		costs[core.AccDomain] = *cfg.AccCost
	}
	vars := func(id core.DomainID) int {
		if cfg.RollbackVars > 0 {
			return cfg.RollbackVars
		}
		return e.Domain(id).Vars()
	}
	ch, st := rep.Channel, rep.Stats

	// Tch: every access pays one startup; every word, carried or not,
	// pays its direction's rate. Each ledger charge truncates its
	// payload cost to whole nanoseconds, so the recomputation may
	// exceed the ledger by under 1 ns per charge, never fall below it.
	want := time.Duration(ch.TotalAccesses()) * stack.Startup()
	for _, d := range []channel.Dir{channel.SimToAcc, channel.AccToSim} {
		want += stack.WordCost(d, int(ch.Words[d]))
	}
	got, charges := rep.Ledger.Get(vclock.Channel), rep.Ledger.Count(vclock.Channel)
	if slack := want - got; slack < 0 || slack > time.Duration(charges) {
		t.Errorf("Tch %v, counts price it at %v (%d accesses, words %v, %d charges)",
			got, want, ch.TotalAccesses(), ch.Words, charges)
	}

	// Tstore: one store per transition at its leader's price. Trestore:
	// one restore per rollback; with a fixed leader (or none) its price
	// is known, under auto each restore costs one of the two leaders'.
	var store time.Duration
	for _, id := range []core.DomainID{core.SimDomain, core.AccDomain} {
		store += time.Duration(st.TransitionsByLead[id]) * costs[id].StoreCost(vars(id))
	}
	if got := rep.Ledger.Get(vclock.Store); got != store || st.Stores != st.Transitions {
		t.Errorf("Tstore %v over %d stores, transitions by leader %v price it at %v",
			got, st.Stores, st.TransitionsByLead, store)
	}
	restore := func(id core.DomainID) time.Duration {
		return time.Duration(st.Restores) * costs[id].RestoreCost(vars(id))
	}
	lo, hi := restore(core.SimDomain), restore(core.AccDomain)
	switch cfg.Mode {
	case coemu.SLA:
		hi = lo
	case coemu.ALS:
		lo = hi
	default:
		lo, hi = min(lo, hi), max(lo, hi)
	}
	if got := rep.Ledger.Get(vclock.Restore); got < lo || got > hi || st.Restores != st.Rollbacks {
		t.Errorf("Trestore %v over %d restores (%d rollbacks), counts price it in [%v, %v]",
			got, st.Restores, st.Rollbacks, lo, hi)
	}

	// Accesses: two per conservative cycle, one flush per transition
	// and one failure report per rollback; a success report rides on
	// the next access and starts none.
	if want := 2*st.ConservativeCycles + st.Transitions + st.Rollbacks; ch.TotalAccesses() != want {
		t.Errorf("%d channel accesses, want 2*%d conservative cycles + %d transitions + %d rollbacks = %d",
			ch.TotalAccesses(), st.ConservativeCycles, st.Transitions, st.Rollbacks, want)
	}
}
