package main

import (
	"fmt"
	"math"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/channel/tcpchan"
	"coemu/internal/core"
	"coemu/internal/device"
	"coemu/internal/spec"
	"coemu/internal/vclock"
)

// Traced-pass sizing.
const (
	ladderReps      = 21    // repetitions of the short leaf timings (medians)
	e2eReps         = 11    // untraced engine runs before and after the lockstep pass
	lockstepCycles  = 20000 // cycle cap of the lockstep pass
	lockstepMax     = 2 * time.Second
	spanSegments    = 16    // lockstep segments that record per-call spans
	minRestoreEvery = 16    // at least one rollback per 16 snapshots
	accountBatch    = 1000  // AccountN calls per timing (too short to time singly)
	rttEchoes       = 2000  // tcpchan 1-word echoes
	sessionCap      = 20000 // cycle cap of the traced remote sessions
	setupSessions   = 9     // 1-cycle Pair sessions for remote.session_setup_ms
	daemonRung      = 4 * time.Second
)

// timerOverhead is the median cost of an empty pair of timer reads,
// subtracted from every separately timed call.
func timerOverhead() time.Duration {
	s := make([]float64, 10001)
	for i := range s {
		t0 := time.Now()
		s[i] = float64(time.Since(t0))
	}
	return time.Duration(median(s))
}

// callTimes collects per-call host times in nanoseconds, net of the
// timer overhead.
type callTimes struct {
	over time.Duration
	ns   []float64
}

func (c *callTimes) add(d time.Duration) {
	d -= c.over
	if d < 0 {
		d = 0
	}
	c.ns = append(c.ns, float64(d))
}

func (c *callTimes) median() float64 { return median(c.ns) }

// timeReps returns the median of reps timings of f.
func timeReps(reps int, f func() error) (time.Duration, error) {
	s := make([]float64, reps)
	for i := range s {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s[i] = float64(time.Since(t0))
	}
	return time.Duration(median(s)), nil
}

// runLadder is the traced pass: it measures every layer from outside,
// through the packages' public functions, on the workload's own design
// (design 0 of its stream), climbing from the leaf calls to coemud.
// Host times here are raw; the yardstick median printed beside them
// says how fast the host was.
func runLadder(r *run) error {
	r.y.sample(r.o.duration(yardSample))
	root := r.spans.begin("traced pass", 0, 1)
	defer r.spans.end(root)
	body0 := r.design(0)
	c, err := compile(body0)
	if err != nil {
		return err
	}
	reps := r.o.reps(ladderReps)

	rung := r.spans.begin("spec.Parse+Compile", root, 1)
	d, err := timeReps(reps, func() error { _, err := compile(body0); return err })
	r.spans.end(rung)
	if err != nil {
		return err
	}
	r.set("spec.compile_us", float64(d)/1e3, "us")

	rung = r.spans.begin("core.NewEngine", root, 1)
	d, err = timeReps(reps, func() error { _, err := core.NewEngine(c.d, c.cfg); return err })
	r.spans.end(rung)
	if err != nil {
		return err
	}
	r.set("core.new_engine_us", float64(d)/1e3, "us")

	refCycles := min(c.sp.Run.Cycles, lockstepCycles)
	rung = r.spans.begin("core.RunReference", root, 1)
	d, err = timeReps(r.o.reps(5), func() error { _, err := core.RunReference(c.d, refCycles); return err })
	r.spans.end(rung)
	if err != nil {
		return err
	}
	r.set("bus.reference_ns_per_cyc", float64(d)/float64(refCycles), "ns")

	// The e2e-equivalent run: exact counts from its Stats, host ns per
	// committed cycle from the median of untraced repeats taken on both
	// sides of the lockstep pass, so that the two see the same host.
	var (
		rep      *core.Report
		perCycle []float64
	)
	e2e := func() error {
		rung := r.spans.begin("core.Engine.Run", root, 1)
		defer r.spans.end(rung)
		for i := 0; i < r.o.reps(e2eReps); i++ {
			t0 := time.Now()
			var err error
			if rep, err = runEngine(c, c.cfg); err != nil {
				return err
			}
			perCycle = append(perCycle, float64(time.Since(t0))/float64(rep.Cycles))
		}
		return nil
	}
	if !r.op(e2e()) {
		return nil
	}
	setCounts(r, rep)

	over := timerOverhead()
	rung = r.spans.begin("lockstep", root, 1)
	lt, err := lockstep(r, c, rep, over, rung)
	r.spans.end(rung)
	if !r.op(err) {
		return nil
	}
	r.set("core.evaluate_ns", lt.eval.median(), "ns")
	r.set("core.commit_ns", lt.commit.median(), "ns")
	r.set("predict.predict_ns", lt.predict.median(), "ns")
	r.set("rollback.snapshot_ns", lt.snap.median(), "ns")
	r.set("rollback.restore_ns", lt.restore.median(), "ns")
	r.note("lockstep pass: %d cycles, %d snapshots, %d rollbacks replayed; timer overhead %v subtracted per call",
		lt.cycles, len(lt.snap.ns), len(lt.restore.ns), over)
	if !r.op(e2e()) {
		return nil
	}
	e2eNs := median(perCycle)

	words := int(math.Round(float64(rep.Channel.TotalWords()) / float64(max(rep.Channel.TotalAccesses(), 1))))
	accountNs := accountCost(words)
	r.set("channel.account_ns", accountNs, "ns")

	st := rep.Stats
	perCyc := func(n int64) float64 { return float64(n) / float64(st.Committed) }
	calls := perCyc(executed(st) - st.BatchedCycles)
	callsPerCycle := []float64{calls, calls, perCyc(st.Stores), perCyc(st.Restores),
		perCyc(rep.Channel.TotalAccesses()), perCyc(st.RunAheadCycles)}
	nsPerCall := []float64{lt.eval.median(), lt.commit.median(), lt.snap.median(), lt.restore.median(),
		accountNs, lt.predict.median()}
	share := protocolShare(callsPerCycle, nsPerCall, e2eNs)
	r.set("core.protocol_share", share, "ratio")
	r.note("where one end-to-end host millisecond goes (%.0f ns per committed cycle):", e2eNs)
	for i, name := range []string{"evaluate", "commit", "snapshot", "restore", "channel account", "predict"} {
		r.note("  %-16s %6.3f calls/cyc x %8.1f ns = %5.1f%%", name, callsPerCycle[i], nsPerCall[i],
			100*callsPerCycle[i]*nsPerCall[i]/e2eNs)
	}
	r.note("  %-16s %5.1f%%", "engine protocol", 100*share)

	rung = r.spans.begin("tcpchan round trip", root, 1)
	rtt, err := tcpRoundTrip(r.o.reps(rttEchoes), over)
	r.spans.end(rung)
	if !r.op(err) {
		return nil
	}
	r.set("tcpchan.roundtrip_us", rtt/1e3, "us")

	rung = r.spans.begin("remote sessions", root, 1)
	err = remoteRung(r, c.sp)
	r.spans.end(rung)
	if !r.op(err) {
		return nil
	}

	rung = r.spans.begin("coemud", root, 1)
	err = daemonLadder(r, rung)
	r.spans.end(rung)
	r.op(err)
	return nil
}

// executed is the number of domain-cycle executions the engine's
// counters record: both domains per conservative cycle, plus leader
// run-ahead, lagger follow-up and leader roll-forth cycles.
func executed(st core.Stats) int64 {
	return 2*st.ConservativeCycles + st.RunAheadCycles + st.FollowUpCycles + st.RollForthCycles
}

// setCounts records the exact per-layer counts of one engine report.
func setCounts(r *run, rep *core.Report) {
	st := rep.Stats
	kc := float64(st.Committed) / 1e3
	r.set("core.exec_per_commit", float64(executed(st))/float64(st.Committed), "ratio")
	r.set("core.rollbacks_per_kcyc", float64(st.Rollbacks)/kc, "1/kcyc")
	r.set("core.transition_len", rep.TransitionLengths.Mean(), "cycles")
	r.set("core.batched_share", float64(st.BatchedCycles)/float64(executed(st)), "ratio")
	hit := 1.0
	if st.ChecksTotal > 0 {
		hit = 1 - float64(st.Mispredicts)/float64(st.ChecksTotal)
	}
	r.set("predict.hit_ratio", hit, "ratio")
	ch := rep.Channel
	r.set("channel.accesses_per_kcyc", float64(ch.TotalAccesses())/kc, "1/kcyc")
	r.set("channel.words_per_access", float64(ch.TotalWords())/float64(max(ch.TotalAccesses(), 1)), "words")
	total := float64(rep.Ledger.Total())
	r.set("vclock.tch_share", float64(rep.Ledger.Get(vclock.Channel))/total, "ratio")
	r.set("vclock.store_restore_share",
		float64(rep.Ledger.Get(vclock.Store)+rep.Ledger.Get(vclock.Restore))/total, "ratio")
}

// lockTimes are the per-call timings of the lockstep pass.
type lockTimes struct {
	cycles                               int
	eval, commit, predict, snap, restore callTimes
}

// lockstep drives the two domains of a fresh engine in lockstep — both
// evaluate, each commits the other's contribution — and checks that
// their merged states agree every cycle. The leader (the domain that led
// most transitions in the e2e run) snapshots every mean-transition-
// length cycles; at the e2e run's restore-to-store ratio (and on the
// first of every minRestoreEvery segments, so the restore cost is
// always measured) it rolls back and replays the segment, checking that
// the replay reproduces every merged state. Each call is timed on its
// own.
func lockstep(r *run, c *compiled, rep *core.Report, over time.Duration, parent int) (*lockTimes, error) {
	e, err := core.NewEngine(c.d, c.cfg)
	if err != nil {
		return nil, err
	}
	st := rep.Stats
	leadID := core.AccDomain
	if st.TransitionsByLead[core.SimDomain] > st.TransitionsByLead[core.AccDomain] {
		leadID = core.SimDomain
	}
	lead, lag := e.Domain(leadID), e.Domain(leadID.Other())
	segLen := max(1, int(math.Round(rep.TransitionLengths.Mean())))
	ratio := 0.0
	if st.Stores > 0 {
		ratio = float64(st.Restores) / float64(st.Stores)
	}
	lt := &lockTimes{}
	for _, ct := range []*callTimes{&lt.eval, &lt.commit, &lt.predict, &lt.snap, &lt.restore} {
		ct.over = over
	}
	type record struct {
		remote amba.PartialState
		merged amba.CycleState
	}
	var (
		ledger    vclock.Ledger
		lp, gp    amba.PartialState
		pred      amba.PartialState
		seg       = make([]record, 0, segLen)
		owed      float64
		maxCycles = int(r.o.cycles(min(c.sp.Run.Cycles, lockstepCycles)))
		deadline  = time.Now().Add(lockstepMax)
		vars      = lead.Vars()
		segment   int
	)
	for lt.cycles < maxCycles && time.Now().Before(deadline) {
		traced := segment < spanSegments
		segSpan := 0
		if traced {
			segSpan = r.spans.begin(fmt.Sprintf("segment %d", segment), parent, 1)
		}
		t0 := time.Now()
		snap := lead.Snapshot(&ledger, vars)
		t1 := time.Now()
		lt.snap.add(t1.Sub(t0))
		if traced {
			r.spans.add("Domain.Snapshot", segSpan, 1, t0, t1)
		}
		seg = seg[:0]
		for k := 0; k < segLen && lt.cycles < maxCycles; k++ {
			t0 := time.Now()
			lead.PredictInto(&pred)
			t1 := time.Now()
			lead.EvaluateInto(&ledger, &lp)
			t2 := time.Now()
			lag.EvaluateInto(&ledger, &gp)
			t3 := time.Now()
			ml := lead.CommitFrom(&gp)
			t4 := time.Now()
			mg := lag.CommitFrom(&lp)
			t5 := time.Now()
			lt.predict.add(t1.Sub(t0))
			lt.eval.add(t2.Sub(t1))
			lt.eval.add(t3.Sub(t2))
			lt.commit.add(t4.Sub(t3))
			lt.commit.add(t5.Sub(t4))
			if traced {
				r.spans.add("Domain.PredictInto", segSpan, 1, t0, t1)
				r.spans.add("Domain.EvaluateInto (leader)", segSpan, 1, t1, t2)
				r.spans.add("Domain.EvaluateInto (lagger)", segSpan, 1, t2, t3)
				r.spans.add("Domain.CommitFrom (leader)", segSpan, 1, t3, t4)
				r.spans.add("Domain.CommitFrom (lagger)", segSpan, 1, t4, t5)
			}
			if *ml != *mg {
				return nil, fmt.Errorf("lockstep: domains diverged at cycle %d:\nleader: %s\nlagger: %s", lt.cycles, ml, mg)
			}
			seg = append(seg, record{gp, *ml})
			lt.cycles++
		}
		owed += ratio
		if owed >= 1 || segment%minRestoreEvery == 0 {
			if owed >= 1 {
				owed--
			}
			t0 := time.Now()
			lead.Rollback(&ledger, vars, snap)
			t1 := time.Now()
			lt.restore.add(t1.Sub(t0))
			if traced {
				r.spans.add("Domain.Rollback", segSpan, 1, t0, t1)
			}
			for i := range seg {
				lead.EvaluateInto(&ledger, &lp)
				if m := lead.CommitFrom(&seg[i].remote); *m != seg[i].merged {
					return nil, fmt.Errorf("lockstep: replay after rollback diverged at segment cycle %d", i)
				}
			}
		}
		r.spans.end(segSpan)
		segment++
	}
	return lt, nil
}

// accountCost is the median host cost of one channel.AccountN call of
// the given payload size, timed in batches.
func accountCost(words int) float64 {
	var ledger vclock.Ledger
	ch := channel.New(device.IPROVE(), &ledger)
	s := make([]float64, 201)
	for i := range s {
		t0 := time.Now()
		for k := 0; k < accountBatch; k++ {
			ch.AccountN(channel.AccToSim, words, 1)
		}
		s[i] = float64(time.Since(t0)) / accountBatch
	}
	return median(s)
}

// tcpRoundTrip is the median time of a 1-word Send→Recv echo over a
// standalone tcpchan Dial/Listen pair on loopback, in nanoseconds.
func tcpRoundTrip(n int, over time.Duration) (float64, error) {
	l, err := tcpchan.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	type accepted struct {
		tr  *tcpchan.Transport
		err error
	}
	ach := make(chan accepted, 1)
	go func() {
		tr, _, err := l.Accept(tcpchan.Options{Role: tcpchan.RoleAcc})
		ach <- accepted{tr, err}
	}()
	sim, err := tcpchan.Dial(l.Addr().String(), tcpchan.Options{Role: tcpchan.RoleSim})
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	a := <-ach
	if a.err != nil {
		return 0, a.err
	}
	acc := a.tr
	defer acc.Close()
	word := []amba.Word{1}
	echo := func(tr *tcpchan.Transport, d channel.Dir) error {
		p, err := tr.Recv(d)
		if err == nil {
			tr.Release(p)
		}
		return err
	}
	ct := callTimes{over: over}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := sim.Send(channel.SimToAcc, word); err != nil {
			return 0, err
		}
		if err := echo(acc, channel.SimToAcc); err != nil {
			return 0, err
		}
		if err := acc.Send(channel.AccToSim, word); err != nil {
			return 0, err
		}
		if err := echo(sim, channel.AccToSim); err != nil {
			return 0, err
		}
		ct.add(time.Since(t0))
		// Drain the local echoes of the authoritative sends.
		if err := echo(sim, channel.SimToAcc); err != nil {
			return 0, err
		}
		if err := echo(acc, channel.AccToSim); err != nil {
			return 0, err
		}
	}
	if err := linkFault(sim.Stats(), acc.Stats()); err != nil {
		return 0, err
	}
	return ct.median(), nil
}

// remoteRung measures the remote layer on the workload's design:
// session set-up on a 1-cycle spec, and one optimistic and one
// conservative session capped at sessionCap cycles.
func remoteRung(r *run, sp *spec.Spec) error {
	one := clone(sp)
	one.Run.Cycles = 1
	d, err := timeReps(r.o.reps(setupSessions), func() error { _, _, err := session(one); return err })
	if err != nil {
		return err
	}
	r.set("remote.session_setup_ms", float64(d)/1e6, "ms")

	opt := clone(sp)
	opt.Run.Cycles = min(sp.Run.Cycles, r.o.cycles(sessionCap))
	res, od, err := session(opt)
	if err != nil {
		return err
	}
	cres, cd, err := session(withMode(opt, "conservative"))
	if err != nil {
		return err
	}
	frames := res.Client.Transport.Sent + res.ServerStats.Sent
	r.set("tcpchan.frames_per_kcyc", float64(frames)/(float64(opt.Run.Cycles)/1e3), "1/kcyc")
	r.set("tcpchan.retransmits", float64(res.Client.Transport.Retransmits+res.ServerStats.Retransmits+
		cres.Client.Transport.Retransmits+cres.ServerStats.Retransmits), "count")
	r.set("remote.link_gain_x", float64(cd)/float64(od), "x")
	r.note("remote sessions (%d cycles): %s %v, %d frames; conservative %v, %d frames",
		opt.Run.Cycles, opt.Run.Mode, od, frames, cd, cres.Client.Transport.Sent+cres.ServerStats.Sent)
	return nil
}

// daemonLadder runs a short daemon mix of the workload's own designs
// against a fresh coemud and reads the service, store and sweep-client
// layers from /v1/stats, /metrics and the clients' own timings.
func daemonLadder(r *run, parent int) error {
	d, took, err := r.startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	r.note("coemud start-up %v", took)
	m := newMix(r, d)
	m.spanParent = parent
	m.drive(r.o.duration(daemonRung))
	c, err := m.counters()
	if err != nil {
		return err
	}
	means, err := m.histMeans()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop coemud: %w", err)
	}
	m.verify()
	subs := float64(m.requests + m.points)
	r.set("service.queue_wait_ms", 1e3*means["coemu_job_queue_seconds"], "ms")
	r.set("service.job_ms", 1e3*means["coemu_job_seconds"], "ms")
	r.set("service.cache_hit_ratio", float64(c.CacheHits)/subs, "ratio")
	r.set("service.engine_runs_per_req", float64(c.EngineRuns)/subs, "ratio")
	r.set("store.hit_ratio", float64(c.StoreHits)/float64(max(c.StoreHits+c.StoreMisses, 1)), "ratio")
	r.set("store.read_ms", 1e3*means["coemu_store_read_seconds"], "ms")
	r.set("store.write_ms", 1e3*means["coemu_store_write_seconds"], "ms")
	r.set("sweepclient.grid_ms", median(m.grids), "ms")
	gridSecs := 0.0
	for _, g := range m.grids {
		gridSecs += g / 1e3
	}
	r.set("sweepclient.points_s", float64(len(m.grids)*gridSize)/gridSecs, "1/s")
	r.note("coemud rung: %d requests, %d grids, %d engine runs, %d cache hits, %d store hits",
		m.requests, len(m.grids), c.EngineRuns, c.CacheHits, c.StoreHits)
	return nil
}
