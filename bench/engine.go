package main

import (
	"bytes"
	"fmt"
	"time"

	"coemu/internal/amba"
	"coemu/internal/core"
	"coemu/internal/perfmodel"
	"coemu/internal/service"
	"coemu/internal/spec"
)

// Oracle and set-up cadence.
const (
	// oracleEvery: every 16th timed operation is re-checked after the
	// timed phase (re-run with KeepTrace against RunReference, report
	// bytes against the spec's first run).
	oracleEvery = 16
	// setupReps is how often an engine workload repeats its set-up;
	// setup_s is the median.
	setupReps = 101
)

// paperTable2Gain is the paper's published Table 2 gain at p = 1.
const paperTable2Gain = 16.75

// compiled is one design ready to run.
type compiled struct {
	sp  *spec.Spec
	d   core.Design
	cfg core.Config
}

func compile(body []byte) (*compiled, error) {
	sp, err := spec.Parse(body)
	if err != nil {
		return nil, err
	}
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return &compiled{sp: sp, d: d, cfg: cfg}, nil
}

// runEngine builds a fresh engine for c under cfg and runs it for the
// spec's cycle budget — one job as `coemu -spec` would run it.
func runEngine(c *compiled, cfg core.Config) (*core.Report, error) {
	e, err := core.NewEngine(c.d, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(c.sp.Run.Cycles)
}

// setUp parses and compiles every body and builds one engine for each,
// reps times; setup_s is the median time of one complete set-up.
func setUp(r *run, bodies [][]byte, reps int) ([]*compiled, error) {
	var cs []*compiled
	times := make([]float64, 0, reps)
	yBefore := r.y.sample(r.o.duration(yardSample))
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		cs = make([]*compiled, 0, len(bodies))
		for _, b := range bodies {
			c, err := compile(b)
			if err != nil {
				return nil, err
			}
			if _, err := core.NewEngine(c.d, c.cfg); err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.setSetup(times, yBefore)
	return cs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *run) setPeakRSS(pid int) error {
	v, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", v, "MiB")
	return nil
}

// modeled accumulates the paper's metric over a design set, weighting
// every design equally: modeled seconds per committed cycle averaged
// over the designs, for the workload's own mode and for the
// conservative baseline on the same specs. (Summing cycles and seconds
// instead would weight designs by their cycle budgets, and a seed that
// drew long budgets for one design family would move the result.)
type modeled struct {
	n                            int
	secPerCycle, consSecPerCycle float64 // sums over the designs
}

func (m *modeled) add(opt, cons *core.Report) {
	m.n++
	m.secPerCycle += opt.Ledger.Total().Seconds() / float64(opt.Cycles)
	m.consSecPerCycle += cons.Ledger.Total().Seconds() / float64(cons.Cycles)
}

func (m *modeled) kcycS() float64 { return float64(m.n) / m.secPerCycle / 1e3 }

func (m *modeled) gain() float64 { return m.consSecPerCycle / m.secPerCycle }

func (r *run) setModeled(m *modeled) {
	r.set("modeled_kcyc_s", m.kcycS(), "kcyc/s")
	r.set("gain_x", m.gain(), "x")
}

func conservative(cfg core.Config) core.Config {
	cfg.Mode = core.Conservative
	return cfg
}

// referenceOracle checks co-emulated runs against the monolithic
// reference model, caching one reference trace per design.
type referenceOracle struct {
	refs map[int][]amba.CycleState
}

// check re-runs c with KeepTrace and compares its trace cycle for cycle
// with RunReference, and its report bytes with want.
func (o *referenceOracle) check(design int, c *compiled, want []byte) error {
	if o.refs == nil {
		o.refs = map[int][]amba.CycleState{}
	}
	ref, ok := o.refs[design]
	if !ok {
		var err error
		if ref, err = core.RunReference(c.d, c.sp.Run.Cycles); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		o.refs[design] = ref
	}
	cfg := c.cfg
	cfg.KeepTrace = true
	rep, err := runEngine(c, cfg)
	if err != nil {
		return fmt.Errorf("KeepTrace re-run: %w", err)
	}
	if len(rep.Trace) != len(ref) {
		return fmt.Errorf("design %d: trace has %d cycles, reference %d", design, len(rep.Trace), len(ref))
	}
	for i := range ref {
		if !ref[i].Equal(rep.Trace[i]) {
			return fmt.Errorf("design %d: trace diverges from the reference at cycle %d", design, i)
		}
	}
	view, err := service.EncodeReport(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(view, want) {
		return fmt.Errorf("design %d: KeepTrace re-run report differs from the timed run's", design)
	}
	return nil
}

// runEngineWorkload is the e2e phase of stream-als and
// multimaster-auto: serial, single-threaded engine runs cycling through
// the seed's design set.
func runEngineWorkload(r *run) error {
	bodies := make([][]byte, designsPerRun)
	for i := range bodies {
		bodies[i] = r.design(i)
	}
	cs, err := setUp(r, bodies, r.o.reps(setupReps))
	if err != nil {
		return err
	}

	// Warm-up: one untimed run per design. Its report is the design's
	// reference bytes for the byte-identity checks and feeds the
	// modeled metrics (deterministic, so any run would do).
	views := make([][]byte, len(cs))
	reports := make([]*core.Report, len(cs))
	for i, c := range cs {
		rep, err := runEngine(c, c.cfg)
		if err == nil {
			views[i], err = service.EncodeReport(rep)
		}
		if err != nil {
			return fmt.Errorf("warm-up run of design %d: %w", i, err)
		}
		reports[i] = rep
	}

	type kept struct {
		design int
		rep    *core.Report
	}
	var keep []kept
	p := r.startPhase()
	deadline := time.Now().Add(r.o.timed())
	for i := 0; time.Now().Before(deadline); i++ {
		c := cs[i%len(cs)]
		t0 := time.Now()
		rep, err := runEngine(c, c.cfg)
		d := time.Since(t0)
		if !r.op(err) {
			continue
		}
		if i%oracleEvery == 0 {
			keep = append(keep, kept{i % len(cs), rep})
		}
		p.op(rep.Cycles, d)
		p.tick(d)
	}
	p.finish()
	if err := r.setPeakRSS(0); err != nil {
		return err
	}

	var oracle referenceOracle
	for _, k := range keep {
		view, err := service.EncodeReport(k.rep)
		r.check(err == nil && bytes.Equal(view, views[k.design]),
			"design %d: a repeated run's report bytes differ from its first run (err %v)", k.design, err)
		r.op(oracle.check(k.design, cs[k.design], views[k.design]))
	}

	var m modeled
	for i, c := range cs {
		cons, err := runEngine(c, conservative(c.cfg))
		if err != nil {
			return fmt.Errorf("conservative run of design %d: %w", i, err)
		}
		m.add(reports[i], cons)
		if i == 0 {
			var d0 modeled
			d0.add(reports[0], cons)
			r.note("design 0 (%s, %d cycles): %.1f modeled kcyc/s, gain %.2fx over conservative",
				c.sp.Name, c.sp.Run.Cycles, d0.kcycS(), d0.gain())
		}
	}
	r.setModeled(&m)
	if r.w.name == "stream-als" {
		r.note("paper reference at p=1: Table 2 %.2fx, analytic model %.2fx; the engine's wire encoding needs ~7-8 words per run-ahead cycle against the paper's 2",
			paperTable2Gain, perfmodel.Table2()[0].Ratio)
	}
	return nil
}
