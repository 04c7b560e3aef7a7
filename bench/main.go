// Command bench is the coemu benchmark: four workloads that each stress
// a different layer of the co-emulation stack, measured end to end
// (host throughput, run latency, modeled performance, set-up time,
// memory) and layer by layer (leaf calls timed from outside through the
// packages' public functions, plus coemud's /v1/stats and /metrics).
//
// Build and run it from the repository root through its wrapper, which
// builds this package and cmd/coemud from source first:
//
//	bash bench/run.sh --workload stream-als --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out /tmp/bench-out   # all workloads, both passes
//
// With --trace 0 a run prints the end-to-end metrics, with --trace 1
// the per-layer metrics from a separate traced pass. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}; every line before it is a human-readable report. Any failed
// operation or correctness check makes the exit status non-zero. See
// README.md for the workloads, the metric definitions and how to
// compare two commits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	root     string
	coemud   string
	quick    bool
}

// timed is the length of the measured phase.
func (o options) timed() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// cycles scales a cycle budget down for -quick smoke runs.
func (o options) cycles(n int64) int64 {
	if o.quick {
		return n / 10
	}
	return n
}

// duration scales a pause down for -quick smoke runs.
func (o options) duration(d time.Duration) time.Duration {
	if o.quick {
		return d / 10
	}
	return d
}

// reps scales a repetition count down for -quick smoke runs.
func (o options) reps(n int) int {
	if o.quick {
		return (n + 9) / 10
	}
	return n
}

// workload is one input set of the benchmark.
type workload struct {
	name string
	// tailPct is the percentile reported as run_tail_ms: the highest
	// one that leaves at least ten samples beyond it at the workload's
	// usual sample count (see README.md).
	tailPct float64
	// e2e runs the timed phase and sets every end-to-end metric.
	e2e func(*run) error
	// designs returns spec i of the workload's seeded design stream.
	designs func(r *run, i int) []byte
}

var workloads = []*workload{
	{name: "stream-als", tailPct: 99, e2e: runEngineWorkload, designs: streamALSDesign},
	{name: "multimaster-auto", tailPct: 97.5, e2e: runEngineWorkload, designs: multimasterDesign},
	{name: "remote-link", tailPct: 75, e2e: runRemoteLink, designs: remoteDesign},
	{name: "daemon-mix", tailPct: 99, e2e: runDaemonMix, designs: mixDesign},
}

func streamALSDesign(r *run, i int) []byte {
	return body(r.ex.streamDesign(r.o.seed, i%designsPerRun, r.o.cycles(50000)))
}

func multimasterDesign(r *run, i int) []byte {
	sp := r.ex.multimasterDesign(r.o.seed, i%designsPerRun)
	sp.Run.Cycles = r.o.cycles(sp.Run.Cycles)
	return body(sp)
}

func remoteDesign(r *run, i int) []byte {
	return body(r.ex.streamDesign(r.o.seed, i%remoteDesigns, r.o.cycles(20000)))
}

func mixDesign(r *run, i int) []byte {
	sp := r.ex.mixBody(r.o.seed, i)
	sp.Run.Cycles = r.o.cycles(sp.Run.Cycles)
	return body(sp)
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the full record of one run, written beside the result.
type detail struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Host     hostInfo           `json:"host"`
	YNominal float64            `json:"y_nominal"`
	YMedian  float64            `json:"y_median"`
	YSamples int                `json:"y_samples"`
	Raw      map[string]float64 `json:"raw"`
	Notes    []string           `json:"notes"`
	Result   result             `json:"result"`
}

// run is the state of one workload run.
type run struct {
	o     options
	w     *workload
	ex    *examples
	y     *yardstick
	dir   string // scratch directory, removed when the run ends
	spans *spanLog
	// daemons are the coemud processes the run started; each has
	// exited by the time the run returns.
	daemons []*daemon

	attempted, failed int64
	metrics           map[string]metric
	raw               map[string]float64
	notes             []string
}

func newRun(o options, w *workload) (*run, error) {
	ex, err := loadExamples(o.root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "scratch-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	y := newYardstick()
	r := &run{
		o: o, w: w, ex: ex, y: y, dir: dir,
		metrics: map[string]metric{},
		raw:     map[string]float64{},
	}
	if o.trace == 1 {
		r.spans = newSpanLog(w.name)
	}
	return r, nil
}

func (r *run) close() { os.RemoveAll(r.dir) }

// design returns spec i of the workload's design stream.
func (r *run) design(i int) []byte { return r.w.designs(r, i) }

// set records a metric that needs no normalization.
func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// setNormalized records a host metric already normalized, with its raw
// value beside it.
func (r *run) setNormalized(name string, v, raw float64, unit string) {
	r.set(name, v, unit)
	r.raw[name] = raw
}

// setSetup records setup_s: the median of the set-up repetitions in
// seconds, normalized by the yardstick samples taken just before and
// just after them.
func (r *run) setSetup(times []float64, yBefore float64) {
	y := (yBefore + r.y.sample(r.o.duration(yardSample))) / 2
	raw := median(times)
	r.setNormalized("setup_s", normTime(raw, y), raw, "s")
}

// finalize fails the run on any metric left without a finite value.
func (r *run) finalize() {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.op(fmt.Errorf("metric %s has no finite value (nothing measured)", name))
			r.metrics[name] = metric{0, m.Unit}
		}
	}
}

// maxFailureNotes bounds how many failures a run's record repeats.
const maxFailureNotes = 20

// op counts one attempted operation and reports its failure, on
// standard error and in the run's record.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %v\n", r.w.name, err)
		if r.failed <= maxFailureNotes {
			r.note("FAIL: %v", err)
		}
		return false
	}
	return true
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run (stream-als, multimaster-auto, remote-link, daemon-mix) or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: 1 is the baseline seed, 2 the held-out seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass (all runs both)")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for result details, spans.json and scratch files")
	flag.StringVar(&o.root, "root", ".", "repository root (holds examples/)")
	flag.StringVar(&o.coemud, "coemud", "", "path to a built cmd/coemud binary (daemon-mix and every traced pass)")
	flag.BoolVar(&o.quick, "quick", false, "scale all work down about 100x (smoke test)")
	flag.Parse()
	if o.quick && !isFlagSet("seconds") {
		o.seconds = 0.2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runOne(o, w, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runOne runs one workload pass, writes its detail record (and spans)
// under o.out, and prints the report with the result as its last line.
// An error means the benchmark could not run at all; failed operations
// are counted in the result instead.
func runOne(o options, w *workload, stdout io.Writer) (result, error) {
	r, err := newRun(o, w)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	return r.execute(stdout)
}

func (r *run) execute(stdout io.Writer) (result, error) {
	o, w := r.o, r.w
	var err error
	if o.trace == 1 {
		err = runLadder(r)
	} else {
		err = w.e2e(r)
	}
	if err != nil {
		return result{}, err
	}
	r.finalize()
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	d := detail{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host: currentHost(), YNominal: yNominal, YMedian: r.y.median(), YSamples: len(r.y.samples),
		Raw: r.raw, Notes: r.notes, Result: res,
	}
	wdir := filepath.Join(o.out, w.name)
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return result{}, err
	}
	if err := writeJSON(filepath.Join(wdir, fmt.Sprintf("result-seed%d-trace%d.json", o.seed, o.trace)), d); err != nil {
		return result{}, err
	}
	if r.spans != nil {
		if err := r.spans.writeChrome(filepath.Join(wdir, "spans.json")); err != nil {
			return result{}, err
		}
	}
	printReport(stdout, d)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable report: host metadata, every
// metric by name with its unit (and the raw value beside normalized
// ones), and the run's notes.
func printReport(w io.Writer, d detail) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	h := d.Host
	fmt.Fprintf(bw, "== %s  seed %d  trace %d  (%g s timed)\n", d.Workload, d.Seed, d.Trace, d.Seconds)
	fmt.Fprintf(bw, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
	fmt.Fprintf(bw, "yardstick: Y_nominal %.0f it/s, Y_median %.1f it/s over %d samples\n", d.YNominal, d.YMedian, d.YSamples)
	names := make([]string, 0, len(d.Result.Metrics))
	for n := range d.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := d.Result.Metrics[n]
		fmt.Fprintf(bw, "  %-28s %14.6g %-8s", n, m.Value, m.Unit)
		if raw, ok := d.Raw[n]; ok {
			fmt.Fprintf(bw, " (raw %.6g)", raw)
		}
		fmt.Fprintln(bw)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(bw, "  # %s\n", n)
	}
	fmt.Fprintf(bw, "operations: %d attempted, %d failed, error_rate %g\n",
		d.Result.Attempted, d.Result.Failed, float64(d.Result.Failed)/math.Max(1, float64(d.Result.Attempted)))
}

// runAll runs every workload, end-to-end pass then traced pass, each in
// its own child process so that memory high-water marks stay per
// workload. It prints the children's reports and a merged result whose
// metric names are prefixed with the workload.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	merged := result{Correct: true, Metrics: map[string]metric{}}
	var spanFiles []string
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr),
				"-out", o.out, "-root", o.root, "-coemud", o.coemud,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			res, perr := lastResult(out)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %d: %v (%v)\n", w.name, tr, perr, err)
				return 1
			}
			merged.Correct = merged.Correct && res.Correct
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			for n, m := range res.Metrics {
				merged.Metrics[w.name+"/"+n] = m
			}
		}
		spanFiles = append(spanFiles, filepath.Join(o.out, w.name, "spans.json"))
	}
	if err := mergeChrome(filepath.Join(o.out, "spans.json"), spanFiles); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !merged.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result line a child printed last.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}
