// Command coemu runs one co-emulation spec and prints the full
// virtual-time report: the Table 2-style per-cycle cost breakdown,
// behavioral counters, channel statistics and transition-length
// distribution.
//
//	coemu -spec examples/quickstart/spec.json
//	coemu -spec experiments/duplex.json -trace-out trace.json
//
// The design, configuration and cycle budget all come from the
// declarative JSON spec named by the required -spec flag (see
// internal/spec).
//
// With -remote-domain addr, the run goes cross-process: the
// accelerator domain is hosted by a `coemud -domain-serve addr`
// process, the spec ships in the connect handshake, and both processes
// run mirrored lockstep engines over the TCP channel (see
// internal/remote). The printed report is bit-identical to the
// in-process run.
//
// With -trace-out trace.json, the run records its protocol events —
// conservative stretches, run-ahead and follow-up spans, rollbacks,
// channel flushes — into a ring buffer (-trace-ring bounds it) and
// writes a Chrome trace_event file at exit; load it in Perfetto or
// chrome://tracing to see the engine's cycle-level schedule. Tracing is
// a pure observer: the report is bit-identical with and without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"coemu"
	"coemu/internal/channel"
	"coemu/internal/core"
	"coemu/internal/remote"
	"coemu/internal/trace"
	"coemu/internal/vclock"
)

func main() {
	specPath := flag.String("spec", "", "declarative JSON spec file to run (required)")
	remoteDomain := flag.String("remote-domain", "", "dial a `coemud -domain-serve` accelerator-domain host at this TCP address and run the spec cross-process")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event file (Perfetto-loadable) of the run's protocol events")
	traceRing := flag.Int("trace-ring", 0, "protocol trace ring capacity in events (0 = default)")
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "coemu: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	s, err := coemu.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(*traceRing)
	}

	if *remoteDomain != "" {
		res, err := remote.Run(context.Background(), *remoteDomain, s, remote.RunOptions{Tracer: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		print(os.Stdout, res.Report)
		st := res.Transport
		fmt.Fprintf(os.Stderr, "transport: %d frames sent, %d received, %d retransmits, %d reconnects\n",
			st.Sent, st.Received, st.Retransmits, st.Reconnects)
		if rec != nil {
			// Fold the transport's connect/retransmit/reconnect events into
			// the protocol trace so the wire shows up as its own track.
			for _, ev := range res.Events {
				rec.Record(ev)
			}
		}
		writeTrace(*traceOut, rec)
		return
	}

	d, cfg, err := s.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Tracer = rec
	rep, err := coemu.Run(d, cfg, s.Run.Cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	print(os.Stdout, rep)
	writeTrace(*traceOut, rec)
}

// writeTrace dumps a recorded run as a Chrome trace_event file. A nil
// recorder (no -trace-out) is a no-op.
func writeTrace(path string, rec *trace.Recorder) {
	if rec == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := trace.WriteChromeTrace(f, rec.Events()); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Stderr, so stdout stays byte-identical with and without tracing.
	fmt.Fprintf(os.Stderr, "protocol trace: %d events to %s", rec.Len(), path)
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, " (%d oldest dropped; raise -trace-ring)", d)
	}
	fmt.Fprintln(os.Stderr)
}

// print writes the report to w. Decline reasons are listed in sorted
// order so the output is byte-identical run to run (and between an
// in-process and a -remote-domain run of the same spec).
func print(w io.Writer, rep *coemu.Report) {
	fmt.Fprintf(w, "mode: %v\n", rep.Mode)
	fmt.Fprintf(w, "target cycles: %d\n", rep.Cycles)
	fmt.Fprintf(w, "virtual wall time: %v\n", rep.Ledger.Total())
	fmt.Fprintf(w, "simulation performance: %.2f kcycles/s\n\n", rep.Perf()/1e3)

	fmt.Fprintln(w, "per-cycle cost breakdown (Table 2 rows):")
	for _, c := range vclock.Categories() {
		fmt.Fprintf(w, "  %-9s %12v/cycle  (%d charges)\n",
			c, rep.Ledger.PerCycle(c, rep.Cycles), rep.Ledger.Count(c))
	}

	s := rep.Stats
	fmt.Fprintf(w, "\nbehavior: %d conservative cycles, %d transitions (sim-led %d, acc-led %d)\n",
		s.ConservativeCycles, s.Transitions, s.TransitionsByLead[0], s.TransitionsByLead[1])
	fmt.Fprintf(w, "  run-ahead %d, follow-up %d, roll-forth %d cycles; %d rollbacks\n",
		s.RunAheadCycles, s.FollowUpCycles, s.RollForthCycles, s.Rollbacks)
	fmt.Fprintf(w, "  predictions checked %d, mispredicted %d (injected %d)\n",
		s.ChecksTotal, s.Mispredicts, s.Injected)
	if len(s.Declines) > 0 {
		fmt.Fprintln(w, "  decline reasons:")
		reasons := make([]core.DeclineReason, 0, len(s.Declines))
		for r := range s.Declines {
			reasons = append(reasons, r)
		}
		slices.Sort(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "    %-48s %d\n", r, s.Declines[r])
		}
	}

	ch := rep.Channel
	fmt.Fprintf(w, "\nchannel: %d accesses, %d words (sim->acc %d/%d, acc->sim %d/%d)\n",
		ch.TotalAccesses(), ch.TotalWords(),
		ch.Accesses[channel.SimToAcc], ch.Words[channel.SimToAcc],
		ch.Accesses[channel.AccToSim], ch.Words[channel.AccToSim])
	fmt.Fprintf(w, "  payload histogram (words): %v buckets sim->acc %v | acc->sim %v\n",
		channel.BucketLabels(), ch.SizeHist[channel.SimToAcc], ch.SizeHist[channel.AccToSim])

	if rep.TransitionLengths.N() > 0 {
		fmt.Fprintf(w, "\ntransition length: mean %.1f cycles, p50 %d, p95 %d, max %d (LOB peak %d words)\n",
			rep.TransitionLengths.Mean(), rep.TransitionLengths.Quantile(0.5),
			rep.TransitionLengths.Quantile(0.95), rep.TransitionLengths.Quantile(1),
			rep.LOBPeakWords)
	}
	if rep.RollForthLengths.N() > 0 {
		fmt.Fprintf(w, "roll-forth length: mean %.1f cycles, max %d\n",
			rep.RollForthLengths.Mean(), rep.RollForthLengths.Quantile(1))
	}
}
