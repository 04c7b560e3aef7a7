// Command vcddump runs a spec twice, on the monolithic reference model
// and co-emulated, and writes both bus traces as VCD waveforms (plus
// the co-emulated trace as CSV), letting the cycle-exact equivalence
// be inspected in a waveform viewer:
//
//	vcddump -spec experiments/dma-copy.json -out trace
//	# writes trace_ref.vcd, trace_coemu.vcd, trace.csv
//
// The design, mode, configuration and cycle budget all come from the
// spec named by the required -spec flag (see internal/spec). Both
// traces hold one record per cycle, so keep the budget small.
package main

import (
	"flag"
	"fmt"
	"os"

	"coemu"
)

func main() {
	specPath := flag.String("spec", "", "declarative JSON spec file to run (required)")
	out := flag.String("out", "trace", "output file prefix")
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "vcddump: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	s, err := coemu.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	design, cfg, err := s.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.KeepTrace = true

	ref, err := coemu.RunReference(design, s.Run.Cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := coemu.Run(design, cfg, s.Run.Cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	diverged := -1
	for i := range ref {
		if !ref[i].Equal(rep.Trace[i]) {
			diverged = i
			break
		}
	}
	if diverged >= 0 {
		fmt.Printf("WARNING: traces diverge at cycle %d\n", diverged)
	} else {
		fmt.Printf("traces identical over %d cycles\n", len(ref))
	}

	write := func(name string, f func(*os.File) error) {
		fh, err := os.Create(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fh.Close()
		if err := f(fh); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", name)
	}
	write(*out+"_ref.vcd", func(f *os.File) error { return coemu.WriteVCD(f, "ahb_ref", ref, 10) })
	write(*out+"_coemu.vcd", func(f *os.File) error { return coemu.WriteVCD(f, "ahb_coemu", rep.Trace, 10) })
	write(*out+".csv", func(f *os.File) error { return coemu.WriteTraceCSV(f, rep.Trace) })
}
