// Command coemu runs one co-emulation scenario and prints the full
// virtual-time report: the Table 2-style per-cycle cost breakdown,
// behavioral counters, channel statistics and transition-length
// distribution.
//
//	coemu -mode als -workload stream -cycles 50000
//	coemu -mode auto -workload duplex -accuracy 0.9 -lob 128
//	coemu -spec examples/quickstart/spec.json
//
// With -spec, the design, configuration and cycle budget all come from
// the declarative JSON spec (see internal/spec) and the other scenario
// flags are ignored.
//
// With -remote-domain addr (requires -spec), the run goes
// cross-process: the accelerator domain is hosted by a
// `coemud -domain-serve addr` process, the spec ships in the connect
// handshake, and both processes run mirrored lockstep engines over the
// TCP channel (see internal/remote). The printed report is
// bit-identical to the in-process run. If the spec sets
// run.measured_latency, the client also samples the real link RTT and
// prints a masked-performance estimate — what the prediction
// packetizing would deliver against the measured link instead of the
// modeled channel — to stderr.
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
	"coemu/internal/ip"
	"coemu/internal/remote"
	"coemu/internal/trace"
	"coemu/internal/vclock"
	"coemu/internal/workload"
)

func main() {
	mode := flag.String("mode", "als", "conservative|sla|als|auto")
	wl := flag.String("workload", "stream", "stream|readback|duplex|random|script")
	scriptPath := flag.String("script", "", "transfer script for -workload script (see workload.ParseScript)")
	cycles := flag.Int64("cycles", 50000, "target cycles")
	simSpeed := flag.Float64("sim", 1e6, "simulator speed (cycles/s)")
	accSpeed := flag.Float64("acc", 1e7, "accelerator speed (cycles/s)")
	lob := flag.Int("lob", 64, "LOB depth (words)")
	accuracy := flag.Float64("accuracy", 1, "pinned prediction accuracy (1 = organic)")
	seed := flag.Uint64("seed", 1, "workload / fault seed")
	vars := flag.Int("vars", 0, "rollback variable override (0 = actual)")
	predictIdle := flag.Bool("predict-idle", false, "extension: predict idle continuation of remote masters")
	predictStarts := flag.Bool("predict-starts", false, "extension: predict burst starts by stride")
	adaptive := flag.Bool("adaptive", false, "extension: adaptive conservative fallback governor")
	specPath := flag.String("spec", "", "run a declarative JSON spec file (ignores the scenario flags)")
	remoteDomain := flag.String("remote-domain", "", "dial a `coemud -domain-serve` accelerator-domain host at this TCP address and run -spec cross-process")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event file (Perfetto-loadable) of the run's protocol events")
	traceRing := flag.Int("trace-ring", 0, "protocol trace ring capacity in events (0 = default)")
	flag.Parse()

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(*traceRing)
	}

	if *remoteDomain != "" {
		if *specPath == "" {
			fmt.Fprintln(os.Stderr, "-remote-domain requires -spec: the spec ships to the domain host in the handshake")
			os.Exit(2)
		}
		s, err := coemu.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res, err := remote.Run(context.Background(), *remoteDomain, s, remote.RunOptions{Tracer: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		print(os.Stdout, res.Report)
		st := res.Transport
		fmt.Fprintf(os.Stderr, "transport: %d frames sent, %d received, %d retransmits, %d resyncs, %d reconnects\n",
			st.Sent, st.Received, st.Retransmits, st.Resyncs, st.Reconnects)
		if m := res.Measured; m != nil {
			fmt.Fprintf(os.Stderr, "measured link: rtt mean %v p99 %v (%d samples)\n", m.RTTMean, m.RTTP99, m.Samples)
			fmt.Fprintf(os.Stderr, "masked performance against measured link: %.0f cyc/s\n", m.MaskedPerf)
		}
		if rec != nil {
			// Fold the transport's connect/resync/retransmit events into
			// the protocol trace so the wire shows up as its own track.
			for _, ev := range res.Events {
				rec.Record(ev)
			}
		}
		writeTrace(*traceOut, rec)
		return
	}

	if *specPath != "" {
		s, err := coemu.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
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
		return
	}

	m, ok := map[string]coemu.Mode{
		"conservative": coemu.Conservative,
		"sla":          coemu.SLA,
		"als":          coemu.ALS,
		"auto":         coemu.Auto,
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var design coemu.Design
	if *wl == "script" {
		var err error
		design, err = scriptDesign(*scriptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		var ok bool
		design, ok = designs(*seed)[*wl]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			os.Exit(2)
		}
	}

	cfg := coemu.Config{
		Mode: m, SimSpeed: *simSpeed, AccSpeed: *accSpeed,
		LOBDepth: *lob, Accuracy: *accuracy, FaultSeed: *seed,
		RollbackVars: *vars,
		PredictIdle:  *predictIdle, PredictBurstStarts: *predictStarts,
		Adaptive: *adaptive,
		Tracer:   rec,
	}
	rep, err := coemu.Run(design, cfg, *cycles)
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

// scriptDesign builds a single-master design driven by a user transfer
// script (an RTL master in the accelerator against a TL memory).
func scriptDesign(path string) (coemu.Design, error) {
	if path == "" {
		return coemu.Design{}, fmt.Errorf("-workload script requires -script <file>")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return coemu.Design{}, err
	}
	// Parse once up front for early error reporting; the design builds
	// fresh generators per engine.
	if _, err := workload.ParseScript(string(src)); err != nil {
		return coemu.Design{}, err
	}
	return coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name: "script", Domain: coemu.AccDomain,
			NewGen: func() ip.Generator {
				g, err := workload.ParseScript(string(src))
				if err != nil {
					panic(err) // validated above
				}
				return g
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name: "mem", Domain: coemu.SimDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}, nil
}

// designs returns the named workload presets.
func designs(seed uint64) map[string]coemu.Design {
	return map[string]coemu.Design{
		// stream: RTL DMA in the accelerator writing into a TL memory —
		// the canonical ALS configuration.
		"stream": {
			Masters: []coemu.MasterSpec{{
				Name: "dma", Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name: "mem", Domain: coemu.SimDomain,
				Region: coemu.Region{Lo: 0, Hi: 0x80000},
				New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
			}},
		},
		// readback: the same topology but reading — data flows against
		// the ALS leader, forcing conservative operation.
		"readback": {
			Masters: []coemu.MasterSpec{{
				Name: "rdr", Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, false,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name: "mem", Domain: coemu.SimDomain,
				Region: coemu.Region{Lo: 0, Hi: 0x80000},
				New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
			}},
		},
		// duplex: DMA copying between domains plus a CPU and an IRQ
		// peripheral; leaders flip with the data direction.
		"duplex": {
			Masters: []coemu.MasterSpec{
				{
					Name: "dma", Domain: coemu.AccDomain,
					NewGen: func() coemu.Generator {
						return coemu.NewDMACopy(
							coemu.Window{Lo: 0x0000, Hi: 0x2000},
							coemu.Window{Lo: 0x8000, Hi: 0xA000},
							coemu.BurstIncr8, 2, 0)
					},
				},
				{
					Name: "cpu", Domain: coemu.SimDomain,
					NewGen: func() coemu.Generator {
						return coemu.NewCPU([]coemu.Window{
							{Lo: 0x0000, Hi: 0x2000}, {Lo: 0x8000, Hi: 0xA000},
						}, 0.5, 6, 0, seed)
					},
				},
			},
			Slaves: []coemu.SlaveSpec{
				{
					Name: "sram", Domain: coemu.SimDomain,
					Region: coemu.Region{Lo: 0x0000, Hi: 0x4000},
					New:    func() coemu.Slave { return coemu.NewSRAM("sram") },
				},
				{
					Name: "ddr", Domain: coemu.AccDomain,
					Region:    coemu.Region{Lo: 0x8000, Hi: 0xC000},
					New:       func() coemu.Slave { return coemu.NewMemory("ddr", 2, 1) },
					WaitFirst: 2, WaitNext: 1,
				},
				{
					Name: "irqc", Domain: coemu.AccDomain,
					Region:  coemu.Region{Lo: 0xF000, Hi: 0xF100},
					New:     func() coemu.Slave { return coemu.NewIRQPeriph("irqc", 0x1) },
					IRQMask: 0x1, WaitFirst: 1, WaitNext: 1,
				},
			},
		},
		// random: a CPU hammering a jittery memory across the split —
		// organic mispredictions guaranteed.
		"random": {
			Masters: []coemu.MasterSpec{{
				Name: "cpu", Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewCPU([]coemu.Window{{Lo: 0, Hi: 0x4000}}, 0.8, 3, 0, seed)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name: "jmem", Domain: coemu.SimDomain,
				Region:    coemu.Region{Lo: 0, Hi: 0x8000},
				New:       func() coemu.Slave { return coemu.NewJitterMemory("jmem", 1, 2, seed) },
				WaitFirst: 1, WaitNext: 1,
			}},
		},
	}
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
