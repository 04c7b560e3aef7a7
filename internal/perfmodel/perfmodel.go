// Package perfmodel implements the analytic performance model behind the
// paper's evaluation (§6): Table 2 ("Performance of ALS"), Figure 4 (the
// accuracy sweep over four configurations) and the SLA claims quoted in
// the text.
//
// The paper evaluates the scheme with a closed-form cost model — "We
// assumed simulator speed of 1,000 kcycles/sec, accelerator speed of
// 10 Mcycles/sec, LOB depth of 64 and 1,000 rollback variables" — rather
// than wall-clock measurements of a workload. This package reconstructs
// that model; the executable discrete-event engine (internal/core)
// measures the same quantities directly and the two are cross-checked in
// tests. The calibration choices that the paper leaves implicit are
// listed in the Calibration section of ARCHITECTURE.md, and this
// package's tests check the model against the published rows.
package perfmodel

import (
	"fmt"
	"math"

	"coemu/internal/device"
)

// Leader selects which domain runs ahead.
type Leader uint8

// Leaders. ALS = accelerator leads, SLA = simulator leads — the paper's
// two operating modes.
const (
	LeaderAcc Leader = iota // ALS
	LeaderSim               // SLA
)

// String returns the paper's mode name for the leader.
func (l Leader) String() string {
	if l == LeaderAcc {
		return "ALS"
	}
	return "SLA"
}

// Params holds every constant of the analytic model.
type Params struct {
	// SimSpeed and AccSpeed are the domain evaluation rates in target
	// cycles/second.
	SimSpeed, AccSpeed float64
	// LOBDepthWords is the LOB capacity in words; the run-ahead span is
	// LOBDepthWords/2 cycles.
	LOBDepthWords int
	// RollbackVars is the leader state size for store/restore pricing.
	RollbackVars int
	// Stack supplies channel startup and per-word costs.
	Stack device.Stack

	// AccStoreNs/AccRestoreNs: accelerator shadow-register costs (flat).
	AccStoreNs, AccRestoreNs float64
	// SimStoreBaseNs and SimPerVarNs: simulator software store/restore.
	SimStoreBaseNs, SimPerVarNs float64

	// ConvWordsFwd/ConvWordsRev: payload words per conventional cycle
	// in each direction.
	ConvWordsFwd, ConvWordsRev int
	// FlushWordsPerCycle: flush payload words per run-ahead cycle.
	FlushWordsPerCycle int
	// ReportWords: payload words of a follow-up report.
	ReportWords int
}

// Default returns the paper's Table 2 configuration.
func Default() Params {
	return Params{
		SimSpeed:           1e6,
		AccSpeed:           1e7,
		LOBDepthWords:      64,
		RollbackVars:       1000,
		Stack:              device.IPROVE(),
		AccStoreNs:         15,
		AccRestoreNs:       29,
		SimStoreBaseNs:     100,
		SimPerVarNs:        4.7,
		ConvWordsFwd:       2,
		ConvWordsRev:       2,
		FlushWordsPerCycle: 1,
		ReportWords:        4,
	}
}

// seconds helpers derived from the stack.
func (p Params) startup() float64 { return p.Stack.Startup().Seconds() }
func (p Params) fwd() float64     { return float64(p.Stack.WordPsSimToAcc) * 1e-12 }
func (p Params) rev() float64     { return float64(p.Stack.WordPsAccToSim) * 1e-12 }

// tsim/tacc are per-cycle evaluation times.
func (p Params) tsim() float64 { return 1 / p.SimSpeed }
func (p Params) tacc() float64 { return 1 / p.AccSpeed }

// M returns the run-ahead span in cycles.
func (p Params) M() int {
	m := p.LOBDepthWords / 2
	if m < 1 {
		m = 1
	}
	return m
}

// Conventional returns the cycles/second of the conservative baseline:
// every target cycle pays both domain evaluations plus two channel
// accesses.
func (p Params) Conventional() float64 {
	t := p.tsim() + p.tacc() +
		2*p.startup() +
		float64(p.ConvWordsFwd)*p.fwd() +
		float64(p.ConvWordsRev)*p.rev()
	return 1 / t
}

// Row is one line of the paper's Table 2: per-cycle time in each cost
// category, the resulting performance and the ratio to conventional.
type Row struct {
	P        float64 // prediction accuracy
	Tsim     float64 // seconds per committed cycle
	Tacc     float64
	Tstore   float64
	Trestore float64
	Tch      float64
	Perf     float64 // cycles/second
	Ratio    float64 // Perf / Conventional
}

// Total returns the per-cycle total time.
func (r Row) Total() float64 { return r.Tsim + r.Tacc + r.Tstore + r.Trestore + r.Tch }

// Optimistic evaluates the model for the given leader at per-cycle
// prediction accuracy acc.
func (p Params) Optimistic(leader Leader, acc float64) Row {
	if acc < 0 || acc > 1 {
		panic(fmt.Sprintf("perfmodel: accuracy %v out of [0,1]", acc))
	}
	m := float64(p.M())

	// Truncated-geometric transition statistics.
	pm := math.Pow(acc, m) // probability the whole run-ahead succeeds
	pfail := 1 - pm
	var n float64 // expected committed cycles per transition
	if acc == 1 {
		n = m
	} else {
		n = (1 - pm) / (1 - acc)
	}
	// Leader work: the full run-ahead plus the roll-forth replay on a
	// failure (expected failure position).
	leaderCycles := m + (n - m*pm)

	// Channel: one flush per transition; a second access on failure.
	wordRate := p.rev() // ALS flush travels acc→sim
	repRate := p.fwd()
	if leader == LeaderSim {
		wordRate, repRate = p.fwd(), p.rev()
	}
	chPerTransition := (1+pfail)*p.startup() +
		m*float64(p.FlushWordsPerCycle)*wordRate +
		(1+pfail)*float64(p.ReportWords)*repRate

	// Store once per transition plus once more after a rollback (the
	// leader re-arms before the next run-ahead); restore on failure.
	var storeCost, restoreCost float64
	if leader == LeaderAcc {
		storeCost = p.AccStoreNs * 1e-9
		restoreCost = p.AccRestoreNs * 1e-9
	} else {
		storeCost = (p.SimStoreBaseNs + p.SimPerVarNs*float64(p.RollbackVars)) * 1e-9
		restoreCost = storeCost
	}
	storePerTransition := (1 + pfail) * storeCost
	restorePerTransition := pfail * restoreCost

	var row Row
	row.P = acc
	if leader == LeaderAcc {
		row.Tsim = p.tsim()                    // lagger commits each cycle once
		row.Tacc = p.tacc() * leaderCycles / n // leader reruns on rollback
	} else {
		row.Tsim = p.tsim() * leaderCycles / n
		row.Tacc = p.tacc()
	}
	row.Tstore = storePerTransition / n
	row.Trestore = restorePerTransition / n
	row.Tch = chPerTransition / n
	row.Perf = 1 / row.Total()
	row.Ratio = row.Perf / p.Conventional()
	return row
}

// Table2Accuracies is the accuracy grid of the paper's Table 2.
var Table2Accuracies = []float64{1.000, 0.990, 0.960, 0.900, 0.800, 0.600, 0.300, 0.100}

// Table2 regenerates the paper's Table 2: ALS at the default
// configuration across the published accuracy grid.
func Table2() []Row {
	p := Default()
	rows := make([]Row, 0, len(Table2Accuracies))
	for _, acc := range Table2Accuracies {
		rows = append(rows, p.Optimistic(LeaderAcc, acc))
	}
	return rows
}

// Figure4Accuracies is the accuracy grid of the paper's Figure 4.
var Figure4Accuracies = []float64{1, 0.995, 0.99, 0.96, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}

// Figure4Config identifies one of the figure's four series.
type Figure4Config struct {
	SimSpeed float64
	LOBDepth int
}

// Label renders the series name the way the figure's legend does.
func (c Figure4Config) Label() string {
	return fmt.Sprintf("Sim=%.0fk, LOBdepth=%d", c.SimSpeed/1e3, c.LOBDepth)
}

// Figure4Configs lists the four series of the paper's Figure 4.
var Figure4Configs = []Figure4Config{
	{1e5, 64}, {1e5, 8}, {1e6, 64}, {1e6, 8},
}

// Figure4Series holds one curve of Figure 4 plus its conventional
// baseline (the horizontal reference lines in the figure).
type Figure4Series struct {
	Config       Figure4Config
	Rows         []Row
	Conventional float64
}

// Figure4 regenerates the paper's Figure 4: ALS performance versus
// accuracy for four (simulator speed × LOB depth) configurations.
func Figure4() []Figure4Series {
	out := make([]Figure4Series, 0, len(Figure4Configs))
	for _, c := range Figure4Configs {
		p := Default()
		p.SimSpeed = c.SimSpeed
		p.LOBDepthWords = c.LOBDepth
		s := Figure4Series{Config: c, Conventional: p.Conventional()}
		for _, acc := range Figure4Accuracies {
			s.Rows = append(s.Rows, p.Optimistic(LeaderAcc, acc))
		}
		out = append(out, s)
	}
	return out
}

// SLAResult captures the §6 SLA claims for one simulator speed: the
// maximum gain (at accuracy 1) and the break-even accuracy where SLA
// performance equals the conventional baseline.
type SLAResult struct {
	SimSpeed  float64
	MaxGain   float64
	BreakEven float64
}

// SLA regenerates the SLA claims for the two published simulator speeds
// (maximum gains 3.25 and 15.34; break-evens 98% and 70%).
func SLA() []SLAResult {
	var out []SLAResult
	for _, speed := range []float64{1e5, 1e6} {
		p := Default()
		p.SimSpeed = speed
		out = append(out, SLAResult{
			SimSpeed:  speed,
			MaxGain:   p.Optimistic(LeaderSim, 1).Ratio,
			BreakEven: p.BreakEven(LeaderSim),
		})
	}
	return out
}

// BreakEven returns the accuracy at which the optimistic mode's
// performance equals the conventional baseline, found by bisection.
// It returns 0 when the mode beats conventional across the whole range
// (no crossover above accuracy 0).
func (p Params) BreakEven(leader Leader) float64 {
	f := func(acc float64) float64 { return p.Optimistic(leader, acc).Ratio - 1 }
	lo, hi := 0.001, 1.0
	if f(hi) < 0 {
		return 1 // never profitable
	}
	if f(lo) > 0 {
		return 0 // always profitable
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// HeadlineGain returns the abstract's "performance gain of 1500%"
// quantity: the ALS speedup over conventional at 100% accuracy, in
// percent.
func HeadlineGain() float64 {
	return (Default().Optimistic(LeaderAcc, 1).Ratio - 1) * 100
}
