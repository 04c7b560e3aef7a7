package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {75, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	// Order must not matter and the input must be left alone.
	shuffled := []float64{50, 15, 40, 20, 35}
	if got := percentile(shuffled, 75); got != 40 {
		t.Errorf("percentile of shuffled input = %g, want 40", got)
	}
	if shuffled[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	// p99 of 1000 samples leaves exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
}

func TestNormalization(t *testing.T) {
	// A host running the yardstick at half the nominal rate is half as
	// fast: its rates double and its times halve when normalized.
	half := yNominal / 2
	if got := normRate(1000, half); got != 2000 {
		t.Errorf("normRate on a half-speed host = %g, want 2000", got)
	}
	if got := normTime(10, half); got != 5 {
		t.Errorf("normTime on a half-speed host = %g, want 5", got)
	}
	// At nominal speed both are the identity, and a rate and the time
	// of the same work stay reciprocal under normalization.
	if normRate(123, yNominal) != 123 || normTime(123, yNominal) != 123 {
		t.Error("normalization at Y_nominal is not the identity")
	}
	y := yNominal * 1.37
	if got := normRate(1/0.25, y) * normTime(0.25, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized rate x normalized time = %g, want 1", got)
	}
}

func TestProtocolShare(t *testing.T) {
	// 2 evaluates x 100 ns + 0.5 snapshots x 200 ns = 300 of 400 ns per
	// cycle: a quarter of the time is outside the timed calls.
	got := protocolShare([]float64{2, 0.5}, []float64{100, 200}, 400)
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("protocolShare = %g, want 0.25", got)
	}
	if got := protocolShare(nil, nil, 400); got != 1 {
		t.Errorf("protocolShare with no timed calls = %g, want 1", got)
	}
}

func TestRequestStreamRepeats(t *testing.T) {
	rs := requestStream{seed: 1}
	const n = 4000
	repeats, old := 0, 0
	seen := map[int]int{} // design -> request index of its first use
	for i := 0; i < n; i++ {
		idx := rs.next()
		if first, ok := seen[idx]; ok {
			repeats++
			if i-first >= oldAge {
				old++
			}
		} else {
			seen[idx] = i
		}
	}
	if share := float64(repeats) / n; share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
	if old == 0 {
		t.Error("no repeat reached back oldAge requests (store hits)")
	}
	again := requestStream{seed: 1}
	for i := 0; i < n; i++ {
		if again.next() != rs.hist[i] {
			t.Fatalf("request stream is not deterministic at request %d", i)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

// TestQuickSmoke runs every workload, both passes, with all work scaled
// down about 100x: every metric BENCHMARK.json names must be emitted and
// finite, no operation may fail, and every coemud child must have exited.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/coemud and runs every workload")
	}
	dir := t.TempDir()
	coemud := filepath.Join(dir, "coemud")
	build := exec.Command("go", "build", "-o", coemud, "./cmd/coemud")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build coemud: %v\n%s", err, out)
	}
	e2e, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for tr, names := range [][]string{e2e, perLayer} {
			o := options{
				workload: w.name, seed: 1, seconds: 0.2, trace: tr,
				out: filepath.Join(dir, "out"), root: "..", coemud: coemud, quick: true,
			}
			r, err := newRun(o, w)
			if err != nil {
				t.Fatal(err)
			}
			var report strings.Builder
			res, err := r.execute(&report)
			r.close()
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, tr, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d operations failed\n%s", w.name, tr, res.Failed, res.Attempted, report.String())
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.name, tr, len(res.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := res.Metrics[n]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: metric %s missing or not finite (%v)", w.name, tr, n, m)
				}
			}
			for _, d := range r.daemons {
				if !d.exited() {
					t.Errorf("%s trace %d: a coemud child is still running", w.name, tr)
				}
			}
			last := strings.TrimSpace(report.String())
			last = last[strings.LastIndexByte(last, '\n')+1:]
			if _, err := lastResult([]byte(last)); err != nil {
				t.Errorf("%s trace %d: last report line is not the result: %v", w.name, tr, err)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "daemon-mix", "spans.json")); err != nil {
		t.Errorf("traced pass wrote no spans.json: %v", err)
	}
}
