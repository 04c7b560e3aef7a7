package core

import (
	"fmt"
	"math"
	"time"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/predict"
	"coemu/internal/rollback"
	"coemu/internal/sim"
	"coemu/internal/vclock"
)

// Domain is one verification domain: a half-bus model (the paper's HBMS
// or HBMA) populated with the components local to the domain, the
// channel-wrapper bookkeeping (predictor, snapshot registry), and the
// domain's cost parameters (per-cycle evaluation time, store/restore
// cost model).
type Domain struct {
	id   DomainID
	bus  *bus.Bus
	pred *remotePredictor
	reg  rollback.Registry

	masters []*ip.TrafficMaster // local masters (for stats)
	tickers []sim.Clocked
	clock   sim.Clock

	cycleCost time.Duration
	timeCat   vclock.Category
	costModel rollback.CostModel

	evaluated bool

	// leads reports whether the engine's mode ever lets this domain
	// lead a transition. A domain that never leads never has its
	// predictions consumed, so its predictor stays frozen: CommitFrom
	// and AdvanceQuiescent skip the per-cycle observation bookkeeping,
	// and PredictionStableCycles places no bound.
	leads bool

	// snap is the domain's reusable transition snapshot. The engine
	// keeps at most one snapshot live per domain (rb_store at the start
	// of each transition, rb_restore at most once before the next
	// store), so each store recycles the previous transition's buffers.
	snap rollback.Snapshot
}

// buildDomain constructs one half of the split system. leads reports
// whether the engine's mode ever lets the domain lead.
func buildDomain(d Design, id DomainID, cycleCost time.Duration, costModel rollback.CostModel, leads bool) *Domain {
	dom := &Domain{
		id:        id,
		bus:       bus.New(id.String()),
		cycleCost: cycleCost,
		costModel: costModel,
		leads:     leads,
	}
	if id == SimDomain {
		dom.timeCat = vclock.Sim
	} else {
		dom.timeCat = vclock.Acc
	}
	dom.bus.SetOwnsDefault(d.OwnsDefault == id)

	for _, ms := range d.Masters {
		if ms.Domain == id {
			gen := ms.NewGen()
			m := ip.NewTrafficMaster(ms.Name, gen, ms.BusyEvery)
			dom.masters = append(dom.masters, m)
			dom.bus.AddMaster(m)
			vars := ms.Vars
			if vars == 0 {
				vars = defaultVars
			}
			dom.reg.Register(ms.Name, m, vars)
			if g, ok := gen.(rollback.Snapshotter); ok {
				dom.reg.Register(ms.Name+".gen", g, 1)
			}
		} else {
			dom.bus.AddExternalMaster(ms.Name)
		}
	}

	timings := make(map[int]ip.SlaveTiming)
	var remoteIRQ uint32
	remoteSplit := false
	for _, ss := range d.Slaves {
		if ss.Domain == id {
			s := ss.New()
			if _, isSplit := s.(bus.SplitSource); isSplit != ss.splitCapable() {
				panic(fmt.Sprintf("core: slave %q: SPLIT cadence declared %v but implementation says %v",
					ss.Name, ss.splitCapable(), isSplit))
			}
			dom.bus.MapSlave(s, ss.Region, ss.IRQMask)
			if snap, ok := s.(rollback.Snapshotter); ok {
				vars := ss.Vars
				if vars == 0 {
					vars = defaultVars
				}
				dom.reg.Register(ss.Name, snap, vars)
			}
			if c, ok := s.(sim.Clocked); ok {
				dom.tickers = append(dom.tickers, c)
			}
		} else {
			idx := dom.bus.MapExternalSlave(ss.Name, ss.Region)
			timings[idx] = ip.NewSlaveTiming(ss.WaitFirst, ss.WaitNext, ss.Cadence)
			remoteIRQ |= ss.IRQMask
			if ss.splitCapable() {
				remoteSplit = true
			}
		}
	}

	dom.pred = newRemotePredictor(dom.bus, d.OwnsDefault == id, timings)
	dom.pred.setRemoteIRQMask(remoteIRQ)
	if remoteSplit {
		dom.pred.setRemoteSplitMask((1 << uint(dom.bus.Masters())) - 1)
	}
	dom.reg.Register("bus", dom.bus, 5)
	dom.reg.Register("predictor", dom.pred, 5)
	dom.reg.Register("clock", &dom.clock, 1)
	return dom
}

// ID returns the domain identity.
func (d *Domain) ID() DomainID { return d.id }

// Bus returns the half-bus model.
func (d *Domain) Bus() *bus.Bus { return d.bus }

// Vars returns the domain's rollback-variable count.
func (d *Domain) Vars() int { return d.reg.Vars() }

// Now returns the number of committed target cycles in this domain.
func (d *Domain) Now() int64 { return d.clock.Now() }

// Masters returns the domain's local masters.
func (d *Domain) Masters() []*ip.TrafficMaster { return d.masters }

// EvaluateInto computes the domain's contribution for the upcoming
// cycle in *dst and charges one cycle of domain time to the ledger. The
// half-bus keeps dst until the matching CommitFrom merges from it (see
// bus.Bus.EvaluateInto): the caller must not write *dst in between, and
// a Rollback drops it. The engine passes the next LOB slot or an
// engine-owned buffer, never a loop-local variable, which would escape
// to the heap on every cycle.
func (d *Domain) EvaluateInto(ledger *vclock.Ledger, dst *amba.PartialState) {
	if d.evaluated {
		panic(fmt.Sprintf("core: domain %s: Evaluate without Commit", d.id))
	}
	ledger.Charge(d.timeCat, d.cycleCost)
	d.evaluated = true
	d.bus.EvaluateInto(dst)
}

// CommitFrom completes the cycle with the given remote contribution
// (real or predicted), ticks the domain's clocked components, advances
// the predictor's observation stream (in a domain that may lead), and
// returns the full merged MSABS record. remote is read in place; the
// returned record points into the bus-owned result, valid until the
// next CommitFrom.
func (d *Domain) CommitFrom(remote *amba.PartialState) *amba.CycleState {
	if !d.evaluated {
		panic(fmt.Sprintf("core: domain %s: Commit without Evaluate", d.id))
	}
	d.evaluated = false
	if d.leads {
		d.pred.StashDataPhase()
	}
	res := d.bus.CommitFrom(remote)
	cycle := d.clock.Advance()
	for _, t := range d.tickers {
		t.Tick(cycle)
	}
	if d.leads {
		d.pred.Observe(&res.State, remote)
	}
	return &res.State
}

// PredictInto writes the predicted remote contribution for the upcoming
// cycle through dst, or zeroes it and returns the reason no prediction
// is possible. It is legal both before and after Evaluate: it touches
// only registered bus state. A domain that never leads observes
// nothing, so its predictions rest on no history.
func (d *Domain) PredictInto(dst *amba.PartialState) DeclineReason {
	return d.pred.PredictInto(dst)
}

// Snapshot captures the whole domain (components, generators, bus,
// predictor, clock) and charges the store cost. The capture recycles
// the buffers of previous Snapshot calls: only the most recent one may
// still be restored, exactly the leader's rollback discipline. The
// modeled store cost is charged from the cost model, not from what the
// host copies: the emulated hardware shadows its full register state.
func (d *Domain) Snapshot(ledger *vclock.Ledger, vars int) rollback.Snapshot {
	if d.evaluated {
		panic(fmt.Sprintf("core: domain %s: snapshot mid-cycle", d.id))
	}
	ledger.Charge(vclock.Store, d.costModel.StoreCost(vars))
	d.reg.SaveInto(&d.snap)
	return d.snap
}

// Rollback restores a snapshot and charges the restore cost.
func (d *Domain) Rollback(ledger *vclock.Ledger, vars int, s rollback.Snapshot) {
	if d.evaluated {
		// A leader waiting in Get-response has an outstanding Evaluate
		// for the final cycle; rolling back cancels it (the bus restore
		// drops the LOB slot it kept).
		d.evaluated = false
	}
	ledger.Charge(vclock.Restore, d.costModel.RestoreCost(vars))
	d.reg.Restore(s)
}

// LocalIRQMask returns the interrupt lines owned by this domain.
func (d *Domain) LocalIRQMask() uint32 { return d.bus.LocalIRQMask() }

// QuiescentCycles reports for how many upcoming cycles the domain is
// guaranteed, from ground truth, to evaluate an inactive contribution
// and evolve by pure counter advances only: the half-bus is at an idle
// fixed point, every local master is provably idle (gap countdown or
// exhausted generator), and every clocked component can prove its own
// inactivity through sim.Quiescible. Components that cannot prove it
// (a Clocked slave without Quiescible) pin the bound to 0, so the
// engine single-steps rather than guesses. Slaves that act only when
// addressed (memories, jitter/retry/error models) need no say: with no
// data phase in flight the bus never calls them.
//
// The bound is what the predicted-quiescence fast path trades on: for
// n <= QuiescentCycles cycles with an inactive remote contribution,
// Evaluate/Commit rounds are exact repetitions and AdvanceQuiescent(n)
// commits them in one step.
func (d *Domain) QuiescentCycles() int64 {
	if d.evaluated || !d.bus.Quiescent() {
		return 0
	}
	n := int64(math.MaxInt64)
	for _, m := range d.masters {
		if q := m.QuiescentCycles(); q < n {
			n = q
			if n == 0 {
				return 0
			}
		}
	}
	for _, t := range d.tickers {
		qt, ok := t.(sim.Quiescible)
		if !ok {
			return 0
		}
		if q := qt.QuiescentFor(); q < n {
			n = q
			if n == 0 {
				return 0
			}
		}
	}
	return n
}

// PredictionStableCycles reports for how many upcoming cycles the
// domain's remote predictor keeps its current Predict outcome, given
// only idle observations (see remotePredictor.PredictStableFor). A
// domain that never leads is never asked for a prediction, so it
// places no bound.
func (d *Domain) PredictionStableCycles() int64 {
	if !d.leads {
		return predict.Unbounded
	}
	return d.pred.PredictStableFor()
}

// AdvanceQuiescent commits n quiescent cycles in one step: n cycles of
// domain time charged to the ledger, the clock, every master's gap
// countdown, every clocked component and the predictor's idle
// bookkeeping advanced by n — bit-identical to n EvaluateInto/CommitFrom
// rounds against the inactive remote contribution the caller proved.
// Callers must keep n within QuiescentCycles() (and, when the domain's
// own predictions are being consumed, PredictionStableCycles()).
func (d *Domain) AdvanceQuiescent(ledger *vclock.Ledger, n int64) {
	ledger.ChargeN(d.timeCat, d.cycleCost, n)
	for _, m := range d.masters {
		m.SkipIdle(n)
	}
	for _, t := range d.tickers {
		t.(sim.Quiescible).SkipQuiescent(n)
	}
	d.clock.AdvanceN(n)
	d.bus.SkipQuiescent(n)
	if d.leads {
		d.pred.SkipIdle(n)
	}
}
