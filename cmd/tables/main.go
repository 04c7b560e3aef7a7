// Command tables regenerates every table and figure of the paper's
// evaluation, printing the published values next to the reproduced ones.
//
//	tables -exp all        # everything (default)
//	tables -exp channel    # §1.2 channel characterization
//	tables -exp table2     # Table 2: Performance of ALS
//	tables -exp figure4    # Figure 4: accuracy sweep, four configs
//	tables -exp sla        # §6 SLA claims
//	tables -exp headline   # abstract's 1500% claim
//	tables -exp des        # executable-engine accuracy and LOB sweeps (DES)
//
// The DES experiments run the sweep documents embedded from the
// experiments directory (des_accuracy.json and des_lob.json), so the
// engine runs exactly the designs `sweep -grid` runs from those files.
package main

import (
	"flag"
	"fmt"
	"os"

	"coemu"
	"coemu/experiments"
	"coemu/internal/device"
	"coemu/internal/perfmodel"
	"coemu/internal/vclock"
)

func main() {
	exp := flag.String("exp", "all", "experiment: channel|table2|figure4|sla|headline|des|all")
	flag.Parse()

	switch *exp {
	case "channel":
		channelExp()
	case "table2":
		table2Exp()
	case "figure4":
		figure4Exp()
	case "sla":
		slaExp()
	case "headline":
		headlineExp()
	case "des":
		desExp()
	case "all":
		channelExp()
		fmt.Println()
		table2Exp()
		fmt.Println()
		figure4Exp()
		fmt.Println()
		slaExp()
		fmt.Println()
		headlineExp()
		fmt.Println()
		desExp()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// channelExp reproduces the §1.2 channel characterization: the layered
// startup overhead and the effective bandwidth collapse for short
// transfers.
func channelExp() {
	s := device.IPROVE()
	fmt.Println("== E1: simulator-accelerator channel characterization (paper §1.2) ==")
	fmt.Printf("startup overhead: %v (paper: 12.2 µs)\n", s.Startup())
	for _, l := range s.Layers {
		fmt.Printf("  %-48s %v\n", l.Name, l.Startup)
	}
	fmt.Printf("payload sim->acc: %.2f ns/word (paper: 49.95)\n", float64(s.WordPsSimToAcc)/1e3)
	fmt.Printf("payload acc->sim: %.2f ns/word (paper: 75.73)\n", float64(s.WordPsAccToSim)/1e3)
	fmt.Println("\nwords  access-cost   eff-bandwidth  startup-share")
	for _, n := range []int{1, 2, 5, 16, 64, 256, 1024, 8192} {
		fmt.Printf("%5d  %11v  %9.2f MW/s  %8.1f%%\n",
			n, s.AccessCost(device.SimToAcc, n),
			s.EffectiveBandwidth(device.SimToAcc, n)/1e6,
			100*s.StartupFraction(device.SimToAcc, n))
	}
	fmt.Println("\nA per-cycle payload of <=5 words (the paper's observation for")
	fmt.Println("bus-connected SoCs) keeps the channel >97% startup overhead —")
	fmt.Println("the motivation for merging transfers into burst packets.")
}

// paperTable2 is the published table for side-by-side printing.
var paperTable2 = map[float64][2]float64{ // p -> {perf, ratio}
	1.000: {652e3, 16.75}, 0.990: {543e3, 13.97}, 0.960: {363e3, 9.33},
	0.900: {226e3, 5.80}, 0.800: {138e3, 3.56}, 0.600: {76.7e3, 1.91},
	0.300: {46.1e3, 1.19}, 0.100: {36.7e3, 0.94},
}

func table2Exp() {
	fmt.Println("== E2: Table 2 — Performance of ALS (analytic model) ==")
	fmt.Println("assumptions: sim 1,000 kcyc/s, acc 10 Mcyc/s, LOB 64 words, 1000 rollback vars")
	conv := perfmodel.Default().Conventional()
	fmt.Printf("conventional baseline: %.1f kcyc/s (paper: 38.9)\n\n", conv/1e3)
	fmt.Println(" p      Tsim     Tacc     Tstore    Trest.    Tch       Perf      Ratio | paper Perf  Ratio")
	for _, r := range perfmodel.Table2() {
		pp := paperTable2[r.P]
		fmt.Printf("%5.3f  %.1e  %.1e  %.2e  %.2e  %.1e  %7.1fk  %5.2f | %8.1fk  %5.2f\n",
			r.P, r.Tsim, r.Tacc, r.Tstore, r.Trestore, r.Tch, r.Perf/1e3, r.Ratio,
			pp[0]/1e3, pp[1])
	}
}

func figure4Exp() {
	fmt.Println("== E3: Figure 4 — simulation performance vs prediction accuracy ==")
	series := perfmodel.Figure4()
	fmt.Print("  p    ")
	for _, s := range series {
		fmt.Printf("  %-22s", s.Config.Label())
	}
	fmt.Println()
	for i, p := range perfmodel.Figure4Accuracies {
		fmt.Printf("%5.3f  ", p)
		for _, s := range series {
			fmt.Printf("  %-22.0f", s.Rows[i].Perf)
		}
		fmt.Println()
	}
	fmt.Println("\nconventional baselines (horizontal lines in the figure):")
	fmt.Printf("  sim=100k:  %.1f kcyc/s (paper: 28.8)\n", series[0].Conventional/1e3)
	fmt.Printf("  sim=1000k: %.1f kcyc/s (paper: 38.9)\n", series[2].Conventional/1e3)
}

func slaExp() {
	fmt.Println("== E4: SLA results (paper §6 text) ==")
	for _, r := range perfmodel.SLA() {
		paperGain, paperBE := 3.25, 0.98
		if r.SimSpeed == 1e6 {
			paperGain, paperBE = 15.34, 0.70
		}
		fmt.Printf("sim=%6.0fk: max gain %.2f (paper %.2f), break-even accuracy %.2f (paper %.2f)\n",
			r.SimSpeed/1e3, r.MaxGain, paperGain, r.BreakEven, paperBE)
	}
}

func headlineExp() {
	fmt.Println("== E5: headline claim (abstract) ==")
	fmt.Printf("gain at 100%% prediction accuracy: %.0f%% (paper: ~1500%%)\n",
		coemu.HeadlineGainPercent())
}

// desExp runs the executable engine over the checked-in DES sweep
// documents: the canonical ALS configuration (streaming RTL master in
// the accelerator, TL memory in the simulator) across injected
// accuracies and across LOB depths, demonstrating that the
// discrete-event system reproduces the analytic shape. Each ratio
// divides by the document's base design run conservatively.
func desExp() {
	points, reps, conv := runExperiment("des_accuracy.json",
		"== E6: executable engine (DES) accuracy sweep, ALS streaming design ==")
	fmt.Println(" p      perf       ratio  transitions  rollbacks  accesses  words")
	for i, rep := range reps {
		fmt.Printf("%5.2f  %8.1fk  %6.2f  %11d  %9d  %8d  %6d\n",
			points[i].Run.Accuracy, rep.Perf()/1e3, rep.Perf()/conv.Perf(),
			rep.Stats.Transitions, rep.Stats.Rollbacks,
			rep.Channel.TotalAccesses(), rep.Channel.TotalWords())
	}
	first := reps[0]
	fmt.Printf("\nper-cycle cost breakdown at p=%g (compare Table 2 row 1):\n", points[0].Run.Accuracy)
	for _, c := range []vclock.Category{vclock.Sim, vclock.Acc, vclock.Store, vclock.Restore, vclock.Channel} {
		fmt.Printf("  %-9s %v/cycle\n", c, first.Ledger.PerCycle(c, first.Cycles))
	}

	fmt.Println()
	points, reps, conv = runExperiment("des_lob.json",
		"== E7: executable engine (DES) LOB-depth sweep, ALS streaming design ==")
	fmt.Println("  LOB      perf   ratio  mean transition  accesses")
	for i, rep := range reps {
		fmt.Printf("%5d  %7.1fk  %6.2f  %15.2f  %8d\n",
			points[i].Run.LOBDepth, rep.Perf()/1e3, rep.Perf()/conv.Perf(),
			rep.TransitionLengths.Mean(), rep.Channel.TotalAccesses())
	}
}

// runExperiment expands and runs the named document from
// experiments.FS, and runs its base spec in conservative mode as the
// baseline every ratio divides by. It prints title and the baseline,
// and exits on any error.
func runExperiment(name, title string) (points []*coemu.Spec, reps []*coemu.Report, conv *coemu.Report) {
	data, err := experiments.FS.ReadFile(name)
	exitOn(err)
	ss, err := coemu.ParseSweepSpec(data)
	exitOn(err)
	points, err = ss.Expand()
	exitOn(err)
	base := ss.Spec
	base.Run.Mode = "conservative"
	conv = runSpec(&base)
	for _, sp := range points {
		reps = append(reps, runSpec(sp))
	}
	fmt.Println(title)
	fmt.Printf("conventional: %.1f kcyc/s (%d channel accesses)\n\n",
		conv.Perf()/1e3, conv.Channel.TotalAccesses())
	return points, reps, conv
}

// runSpec compiles and runs one spec for its own cycle budget.
func runSpec(sp *coemu.Spec) *coemu.Report {
	d, cfg, err := sp.Compile()
	exitOn(err)
	rep, err := coemu.Run(d, cfg, sp.Run.Cycles)
	exitOn(err)
	return rep
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
