package core

import (
	"fmt"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/predict"
)

// remotePredictor composes the paper's §3 predictors into a single
// predictor of the other domain's per-cycle contribution:
//
//   - bus requests: last-value, plus the scheduled rise of a line whose
//     last two low runs were equally long, and the fall on the cycle
//     after a fixed-length burst's final beat (predict.RequestModel,
//     told of the final beat by the master's tracker),
//   - interrupt lines: last-value,
//   - address/control of a remotely-granted master: burst continuation,
//     including the INCR rebuild of a burst that lost the grant with
//     beats left (one tracker per remote master),
//   - responses of a remote active slave: the second cycle of a
//     two-cycle ERROR, RETRY or SPLIT response once its first cycle is
//     seen (predict.SecondCycle), otherwise the slave's own timing
//     automaton (one ip.SlaveTiming per remote slave, configured with
//     its nominal wait profile and RETRY/SPLIT cadence): the wait
//     states, and {HREADY low, RETRY/SPLIT} on the first cycle of a
//     beat whose turn has come,
//   - default-slave replies (when owned remotely): the first cycle of
//     its two-cycle ERROR, a constant,
//   - read data and remote write data: never predicted — PredictInto
//     declines, forcing the channel wrapper to synchronize, which is how
//     the "data source leads" rule emerges. (The second cycle of a
//     two-cycle response carries no read data.)
//
// The predictor advances exclusively through Observe calls, one per
// committed cycle, regardless of whether the committed remote values
// were real or predicted. PredictInto itself is pure. That discipline
// makes roll-forth replay trivially consistent: restore, then
// re-Observe. Every model it composes is a plain value, so its snapshot
// is a set of value copies.
type remotePredictor struct {
	b *bus.Bus

	remoteReqMask   uint32
	remoteIRQMask   uint32
	remoteSplitMask uint32
	ownsDefault     bool

	req predict.RequestModel
	irq predict.LastValue
	// trackers/timings are dense slices of values indexed by global
	// master/slave number, so a lookup is array indexing and a snapshot
	// is a copy. Only the remote masters' and remote slaves' slots are
	// ever observed; a local master's slot stays a fresh tracker, which
	// bounds no idle stretch and which SkipIdle leaves as it is.
	trackers []predict.BurstTracker // per remote master
	timings  []ip.SlaveTiming       // per remote slave

	lastValid bool
	lastFull  amba.CycleState

	pendingDP
}

// defaultSlaveFirst is the first cycle of the default slave's two-cycle
// ERROR; predict.SecondCycle gives the second.
var defaultSlaveFirst = amba.SlaveReply{Ready: false, Resp: amba.RespError}

// newRemotePredictor builds the composite for a domain whose half-bus is
// b. timings maps global slave indexes of *remote* slaves to the timing
// automaton of their nominal profile; every remote slave has one.
func newRemotePredictor(b *bus.Bus, ownsDefault bool, timings map[int]ip.SlaveTiming) *remotePredictor {
	p := &remotePredictor{
		b:             b,
		remoteReqMask: ^b.LocalReqMask() & ((1 << uint(b.Masters())) - 1),
		ownsDefault:   ownsDefault,
		trackers:      make([]predict.BurstTracker, b.Masters()),
		timings:       make([]ip.SlaveTiming, b.Slaves()),
	}
	p.req = predict.NewRequestModel(p.remoteReqMask)
	for idx, t := range timings {
		p.timings[idx] = t
	}
	return p
}

// setRemoteIRQMask declares which interrupt lines arrive from the remote
// domain.
func (p *remotePredictor) setRemoteIRQMask(m uint32) { p.remoteIRQMask = m }

// setRemoteSplitMask declares which HSPLITx lines the remote domain's
// slaves drive.
func (p *remotePredictor) setRemoteSplitMask(m uint32) { p.remoteSplitMask = m }

// DeclineReason explains why the leader cannot run ahead this cycle; it
// feeds the engine's diagnostics.
type DeclineReason string

// Decline reasons. Empty means "can predict".
const (
	DeclineNone       DeclineReason = ""
	DeclineBurstStart DeclineReason = "remote master at unpredictable burst boundary"
	DeclineReadData   DeclineReason = "read data from remote slave"
	DeclineWriteData  DeclineReason = "write data from remote master"
)

// PredictInto computes the predicted remote contribution for the
// upcoming cycle into dst (zeroed on decline) — the engine deposits it
// straight into a LOB entry. It is pure: calling it any number of times
// between Observes writes the same value.
func (p *remotePredictor) PredictInto(dst *amba.PartialState) DeclineReason {
	out := dst
	*out = amba.PartialState{
		ReqMask: p.remoteReqMask,
		Req:     p.req.Predict(),
		IRQMask: p.remoteIRQMask,
		IRQ:     p.irq.Predict() & p.remoteIRQMask,
		// HSPLITx lines are pulses; last-value prediction of a raised
		// line would hold it high forever, so predict all-low
		// (Split 0) and absorb one rollback per remote split release.
		SplitMask: p.remoteSplitMask,
	}

	grant := p.b.Grant()
	if !p.b.MasterLocal(grant) {
		out.HasAP = true
		if p.lastValid && !p.lastFull.Reply.Ready {
			// Wait state: the remote master holds its address phase.
			out.AP = p.lastFull.AP
		} else {
			ap, ok := p.trackers[grant].Predict()
			if !ok {
				*out = amba.PartialState{}
				return DeclineBurstStart
			}
			out.AP = ap
		}
	}

	dpValid, dpAP, dpMaster, dpSlave := p.b.DataPhase()
	if !dpValid {
		return DeclineNone
	}
	if dpAP.Write && !p.b.MasterLocal(dpMaster) {
		*out = amba.PartialState{}
		return DeclineWriteData
	}
	if p.b.SlaveLocal(dpSlave) || dpSlave == bus.DefaultSlaveIndex && p.ownsDefault {
		return DeclineNone
	}
	// The active slave is remote. A data phase that stalled on the first
	// cycle of a two-cycle response is still the same data phase, so its
	// second cycle follows (lastFull is zero, an OKAY, before the first
	// observation).
	out.HasReply = true
	if second, ok := predict.SecondCycle(p.lastFull.Reply); ok {
		out.Reply = second
		return DeclineNone
	}
	switch {
	case dpSlave == bus.DefaultSlaveIndex:
		out.Reply = defaultSlaveFirst
	case !dpAP.Write:
		*out = amba.PartialState{}
		return DeclineReadData
	default:
		out.Reply = p.timings[dpSlave].Reply()
	}
	return DeclineNone
}

// Observe advances the predictor with the remote contribution and full
// merged state of a cycle the domain just committed, both read in
// place (once per committed cycle; value args showed in profiles).
func (p *remotePredictor) Observe(full *amba.CycleState, remote *amba.PartialState) {
	p.req.Observe(remote.Req)
	p.irq.Observe(remote.IRQ & p.remoteIRQMask)

	// Address-phase progression carries information only on ready
	// cycles; during wait states the value is held. A master whose
	// fixed-length burst's final beat was just accepted drops its
	// request on the next cycle. The bus has already arbitrated, so a
	// grant that moves on a ready cycle cuts the master's burst; the
	// announced fall outlives the cut.
	if remote.HasAP && full.Reply.Ready {
		t := &p.trackers[full.Grant]
		t.Observe(remote.AP)
		if t.Final() {
			p.req.Fall(full.Grant)
		}
		if p.b.Grant() != full.Grant {
			t.Cut()
		}
	}

	// The bus has already committed, so its DataPhase() now describes
	// the NEXT cycle. The reply just observed belongs to the cycle that
	// ended; use the data phase stashed before the commit.
	if p.pendingDPValid && p.pendingDPSlave != bus.DefaultSlaveIndex && !p.b.SlaveLocal(p.pendingDPSlave) {
		p.timings[p.pendingDPSlave].Observe(full.Reply.Ready)
	}

	p.lastValid = true
	p.lastFull = *full
}

// pendingDP* stash the data-phase occupancy of the cycle being
// evaluated, captured before the bus commit advances the pipeline.
type pendingDP struct {
	pendingDPValid  bool
	pendingDPSlave  int
	pendingDPMaster int
}

// StashDataPhase records the data-phase occupancy for the cycle about to
// commit; it must be called before the bus Commit whose Observe follows.
func (p *remotePredictor) StashDataPhase() {
	v, _, m, s := p.b.DataPhase()
	p.pendingDPValid = v
	p.pendingDPMaster = m
	p.pendingDPSlave = s
}

// PredictStableFor reports for how many upcoming cycles the
// predictor's PredictInto outcome — the predicted remote contribution
// and the confident/declined verdict alike — is guaranteed to stay
// exactly as it is now, provided only idle cycles are observed in the
// meantime. A data phase in flight or a wait state pins the horizon to
// 0 (response predictions evolve per cycle), and so do a granted
// remote master whose last ready cycle carried a beat and an announced
// request fall; otherwise the only idle-time evolution is the request
// model's low-run counters, and the next scheduled request rise bounds
// the horizon. The engine uses this bound both to keep per-cycle
// leader-choice decisions (and their decline accounting) replicable
// across a batched stretch and to guarantee a leader's run-ahead
// predictions stay constant.
func (p *remotePredictor) PredictStableFor() int64 {
	if v, _, _, _ := p.b.DataPhase(); v {
		return 0
	}
	if p.lastValid && !p.lastFull.Reply.Ready {
		return 0
	}
	return min(p.req.IdleStableFor(), p.trackers[p.b.Grant()].IdleStableFor())
}

// SkipIdle advances the predictor across n committed idle cycles in
// one step, bit-identically to n Observe calls with the constant idle
// contribution the stretch repeats: the IRQ last-value predictor and
// the slave timings are already at fixed points, the last-seen full
// state is unchanged, the request model's low runs accumulate idle
// time, and the granted remote master's burst tracker drops its burst
// context. Callers must have proven the stretch
// (Domain.QuiescentCycles plus PredictStableFor or an entry-run check)
// before skipping.
func (p *remotePredictor) SkipIdle(n int64) {
	p.req.SkipIdle(n)
	p.trackers[p.b.Grant()].SkipIdle()
}

// predictorSnap freezes a remotePredictor as a set of value copies: the
// request model and the IRQ last-value predictor inline, the trackers
// and slave timings in slices recycled across saves.
type predictorSnap struct {
	Req      predict.RequestModel
	IRQ      predict.LastValue
	Trackers []predict.BurstTracker
	Timings  []ip.SlaveTiming
	LastV    bool
	LastFull amba.CycleState
	Pending  pendingDP
}

// SaveInto implements rollback.Snapshotter: the snapshot struct and
// its slices are recycled from prev, so the once-per-transition store
// allocates nothing in the steady state.
func (p *remotePredictor) SaveInto(prev any) any {
	s, ok := prev.(*predictorSnap)
	if !ok {
		s = &predictorSnap{
			Trackers: make([]predict.BurstTracker, len(p.trackers)),
			Timings:  make([]ip.SlaveTiming, len(p.timings)),
		}
	}
	s.Req = p.req
	s.IRQ = p.irq
	copy(s.Trackers, p.trackers)
	copy(s.Timings, p.timings)
	s.LastV = p.lastValid
	s.LastFull = p.lastFull
	s.Pending = p.pendingDP
	return s
}

// Restore implements rollback.Snapshotter.
func (p *remotePredictor) Restore(v any) {
	s, ok := v.(*predictorSnap)
	if !ok {
		panic(fmt.Sprintf("core: predictor: bad snapshot %T", v))
	}
	p.req = s.Req
	p.irq = s.IRQ
	copy(p.trackers, s.Trackers)
	copy(p.timings, s.Timings)
	p.lastValid = s.LastV
	p.lastFull = s.LastFull
	p.pendingDP = s.Pending
}
