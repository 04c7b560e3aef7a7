// Command benchdiff is the benchmark-regression gate run by CI: it
// parses `go test -bench` output, extracts a custom throughput metric
// (target-cyc/s by default), and compares it against a checked-in
// baseline, failing when any benchmark regresses beyond the allowed
// fraction.
//
//	go test -run '^$' -bench ... -benchtime=500ms -count=3 | tee bench.out
//	benchdiff -baseline BENCH_baseline.json -out BENCH_ci.json bench.out
//
// When a benchmark appears several times (-count > 1), the best run is
// kept — the maximum throughput a machine demonstrates is its least
// noisy estimate.
//
//	benchdiff -update -baseline BENCH_baseline.json bench.out
//
// rewrites the baseline from the given output instead of comparing.
//
// Exit status: 0 on success, 1 on regressions or baseline benchmarks
// missing from the current run; 2 on usage/parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Results is the JSON schema of BENCH_baseline.json and BENCH_ci.json:
// the compared metric plus one best-run value per benchmark.
type Results struct {
	// Metric is the bench unit the values were extracted from.
	Metric string `json:"metric"`
	// Benchmarks maps the benchmark name (without the "Benchmark"
	// prefix and the -procs suffix) to its best observed metric value.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Comparison is only present in -out files: the per-benchmark
	// verdicts against the baseline.
	Comparison []Verdict `json:"comparison,omitempty"`
	// MaxRegress is only present in -out files: the allowed fractional
	// regression the run was gated on.
	MaxRegress float64 `json:"max_regress,omitempty"`
}

// Verdict is one benchmark's comparison against the baseline.
type Verdict struct {
	Name     string  `json:"name"`
	Current  float64 `json:"current"`
	Baseline float64 `json:"baseline"`
	// Ratio is current/baseline: 1.0 means parity, below
	// 1-MaxRegress means the gate fails.
	Ratio      float64 `json:"ratio"`
	Regression bool    `json:"regression"`
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON file to compare against (or rewrite with -update)")
	out := flag.String("out", "", "write the current results (with comparison) to this JSON file")
	metric := flag.String("metric", "target-cyc/s", "bench metric unit to extract")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional regression before failing")
	update := flag.Bool("update", false, "rewrite -baseline from the parsed output instead of comparing")
	flag.Parse()

	if flag.NArg() > 1 {
		fatalf(2, "usage: benchdiff [flags] [bench-output.txt]")
	}
	var in io.Reader = os.Stdin
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf(2, "%v", err)
		}
		defer f.Close()
		in = f
	}

	current, err := parseBench(in, *metric)
	if err != nil {
		fatalf(2, "%v", err)
	}
	if len(current.Benchmarks) == 0 {
		fatalf(2, "no benchmarks with a %q metric in the input", *metric)
	}

	if *update {
		if *baseline == "" {
			fatalf(2, "-update requires -baseline")
		}
		if err := writeResults(*baseline, current); err != nil {
			fatalf(2, "%v", err)
		}
		fmt.Printf("baseline %s updated with %d benchmarks\n", *baseline, len(current.Benchmarks))
		return
	}

	if *baseline == "" {
		fatalf(2, "-baseline is required (or use -update to create one)")
	}
	base, err := readResults(*baseline)
	if err != nil {
		fatalf(2, "%v", err)
	}
	if base.Metric != "" && base.Metric != current.Metric {
		fatalf(2, "baseline metric %q does not match -metric %q", base.Metric, current.Metric)
	}

	verdicts, missing, news := compare(base, current, *maxRegress)
	current.Comparison = verdicts
	current.MaxRegress = *maxRegress
	if *out != "" {
		if err := writeResults(*out, current); err != nil {
			fatalf(2, "%v", err)
		}
	}

	failed := false
	for _, v := range verdicts {
		status := "ok"
		if v.Regression {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-60s %12.0f -> %12.0f  (%.3fx) %s\n",
			v.Name, v.Baseline, v.Current, v.Ratio, status)
	}
	for _, name := range news {
		fmt.Printf("%-60s %25.0f  NEW (no baseline; add with -update)\n",
			name, current.Benchmarks[name])
	}
	for _, name := range missing {
		fmt.Printf("%-60s missing from the current run\n", name)
		failed = true
	}
	if failed {
		fatalf(1, "benchmark gate failed (allowed regression %.0f%%)", *maxRegress*100)
	}
	fmt.Printf("benchmark gate passed: %d benchmarks within %.0f%% of baseline (%d new)\n",
		len(verdicts), *maxRegress*100, len(news))
}

// parseBench extracts the chosen metric from `go test -bench` output,
// keeping each benchmark's best run.
func parseBench(r io.Reader, metric string) (*Results, error) {
	res := &Results{Metric: metric, Benchmarks: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := normalizeName(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad %s value %q", name, metric, fields[i])
			}
			if v > res.Benchmarks[name] {
				res.Benchmarks[name] = v
			}
		}
	}
	return res, sc.Err()
}

// normalizeName strips the Benchmark prefix and the -procs suffix.
func normalizeName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// compare gates every baseline benchmark against the current run.
// Benchmarks present in the run but absent from the baseline are new:
// they are reported (so the operator knows to re-baseline with
// -update) but never fail the gate — a fresh benchmark must be able to
// land in the same change as its code. Benchmarks missing from the
// current run are reported as failures — a silently shrinking gate is
// no gate.
func compare(base, current *Results, maxRegress float64) (verdicts []Verdict, missing, news []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := current.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		v := Verdict{Name: name, Current: c, Baseline: b}
		if b > 0 {
			v.Ratio = c / b
			v.Regression = v.Ratio < 1-maxRegress
		}
		verdicts = append(verdicts, v)
	}
	for name := range current.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			news = append(news, name)
		}
	}
	sort.Strings(news)
	return verdicts, missing, news
}

func readResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

func writeResults(path string, res *Results) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(code)
}
