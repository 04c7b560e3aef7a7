package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"coemu/internal/channel/tcpchan"
	"coemu/internal/core"
	"coemu/internal/remote"
	"coemu/internal/service"
	"coemu/internal/spec"
)

// remoteDesigns is the remote-link design set: sessions are long, so a
// run sees few of them and a smaller set still repeats every spec.
const remoteDesigns = 4

// session runs sp across a real loopback TCP socket pair (both mirrors
// in this process) with default knobs and no injected latency. A
// report-digest mismatch between the mirrors, differing client and
// server reports, or transport evidence of a lost frame (linkFault) fail
// it.
func session(sp *spec.Spec) (*remote.PairResult, time.Duration, error) {
	t0 := time.Now()
	res, err := remote.Pair(context.Background(), sp, remote.RunOptions{}, remote.ServeOptions{})
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if res.ClientErr != nil || res.ServerErr != nil {
		return res, d, fmt.Errorf("remote session: client %v, server %v", res.ClientErr, res.ServerErr)
	}
	if err := linkFault(res.Client.Transport, res.ServerStats); err != nil {
		return res, d, err
	}
	if !bytes.Equal(res.Client.View, res.ServerView) {
		return res, d, fmt.Errorf("remote session: client and server reports differ")
	}
	return res, d, nil
}

// linkFault reports transport evidence of a frame lost or damaged on the
// loopback link, which loses nothing by itself: a sequence gap, a
// corrupt frame, a reconnect, or a retransmission the peer did not drop
// as a duplicate of a frame it already had. A retransmission that does
// arrive as a duplicate is spurious: the receiver was descheduled past
// its resync timer (25 ms) while the frame sat unread in its socket. A
// host pause causes that on a clean link (about one session in 600 on
// the reference host), so it is counted (tcpchan.retransmits) but does
// not fail the session.
func linkFault(client, server tcpchan.Stats) error {
	for _, st := range []tcpchan.Stats{client, server} {
		if st.Gaps+st.CorruptFrames+st.Reconnects > 0 {
			return fmt.Errorf("tcpchan: %d gaps, %d corrupt frames, %d reconnects on a clean loopback link",
				st.Gaps, st.CorruptFrames, st.Reconnects)
		}
	}
	if client.Retransmits > server.Dups || server.Retransmits > client.Dups {
		return fmt.Errorf("tcpchan: retransmits %d/%d exceed the duplicates the peers dropped (%d/%d) on a clean loopback link",
			client.Retransmits, server.Retransmits, server.Dups, client.Dups)
	}
	return nil
}

func withMode(sp *spec.Spec, mode string) *spec.Spec {
	c := clone(sp)
	c.Run.Mode = mode
	return c
}

// runRemoteLink is the e2e phase of remote-link: the stream-als design
// over a real TCP socket, alternating ALS and conservative sessions.
// host_cyc_s and the run latencies are the ALS sessions'; the
// conservative sessions give the link gain.
func runRemoteLink(r *run) error {
	bodies := make([][]byte, remoteDesigns)
	for i := range bodies {
		bodies[i] = r.design(i)
	}
	cs, err := setUp(r, bodies, r.o.reps(setupReps))
	if err != nil {
		return err
	}
	// In-process reports are the oracle for every session's report (and,
	// being identical to them, give the modeled metrics).
	var m modeled
	als := make([]*spec.Spec, len(cs))
	cons := make([]*spec.Spec, len(cs))
	views := make([][2][]byte, len(cs))
	for i, c := range cs {
		als[i], cons[i] = c.sp, withMode(c.sp, "conservative")
		var reps [2]*core.Report
		for k, cfg := range []core.Config{c.cfg, conservative(c.cfg)} {
			rep, err := runEngine(c, cfg)
			if err == nil {
				views[i][k], err = service.EncodeReport(rep)
			}
			if err != nil {
				return fmt.Errorf("in-process run of design %d: %w", i, err)
			}
			reps[k] = rep
		}
		m.add(reps[0], reps[1])
	}
	r.setModeled(&m)
	if _, _, err := session(als[0]); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}

	var (
		consSecs, alsSec float64
		consCyc, alsCyc  int64
		retransmits      int64
		checked          []int
	)
	p := r.startPhase()
	deadline := time.Now().Add(r.o.timed())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := i % len(cs)
		res, d, err := session(als[j])
		if r.op(err) {
			retransmits += res.Client.Transport.Retransmits + res.ServerStats.Retransmits
			p.op(res.Client.Report.Cycles, d)
			alsSec += d.Seconds()
			alsCyc += res.Client.Report.Cycles
			r.check(bytes.Equal(res.Client.View, views[j][0]), "design %d: ALS session report differs from the in-process run", j)
			if i%oracleEvery == 0 {
				checked = append(checked, j)
			}
		}
		p.tick(d)
		cres, cd, err := session(cons[j])
		if r.op(err) {
			retransmits += cres.Client.Transport.Retransmits + cres.ServerStats.Retransmits
			consSecs += cd.Seconds()
			consCyc += cres.Client.Report.Cycles
			r.check(bytes.Equal(cres.Client.View, views[j][1]), "design %d: conservative session report differs from the in-process run", j)
		}
		p.tick(cd)
	}
	p.finish()
	if err := r.setPeakRSS(0); err != nil {
		return err
	}
	if alsCyc > 0 && consCyc > 0 {
		r.note("link gain (conservative / ALS host time per cycle over TCP, not normalized): %.2fx",
			(consSecs/float64(consCyc))/(alsSec/float64(alsCyc)))
	}
	r.note("%d spurious retransmissions across the sessions (each dropped by the peer as a duplicate)", retransmits)
	var oracle referenceOracle
	for _, j := range checked {
		r.op(oracle.check(j, cs[j], views[j][0]))
	}
	return nil
}
