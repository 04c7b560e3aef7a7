package spec

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// sweepDoc builds a sweep document around the canonical stream design.
func sweepDoc(sweep string) string {
	base := `{
	  "name": "base",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8"}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": "als", "cycles": 2000}`
	if sweep == "" {
		return base + "\n}"
	}
	return base + ",\n  \"sweep\": " + sweep + "\n}"
}

func TestSweepExpandGrid(t *testing.T) {
	doc := sweepDoc(`{"axes": [
		{"field": "run.accuracy", "values": [1, 0.9, 0.5]},
		{"field": "run.lob_depth", "values": [32, 64]}
	]}`)
	ss, err := ParseSweep([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Points() != 6 {
		t.Fatalf("Points() = %d, want 6", ss.Points())
	}
	points, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	// Row-major: the last axis (lob_depth) varies fastest.
	wantAcc := []float64{1, 1, 0.9, 0.9, 0.5, 0.5}
	wantLOB := []int{32, 64, 32, 64, 32, 64}
	hashes := make(map[string]int)
	for i, p := range points {
		if p.Run.Accuracy != wantAcc[i] || p.Run.LOBDepth != wantLOB[i] {
			t.Fatalf("point %d: accuracy=%v lob=%d, want %v/%d",
				i, p.Run.Accuracy, p.Run.LOBDepth, wantAcc[i], wantLOB[i])
		}
		if !strings.HasPrefix(p.Name, "base[") {
			t.Fatalf("point %d name %q lacks the base prefix", i, p.Name)
		}
		h, err := p.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := hashes[h]; dup {
			t.Fatalf("points %d and %d share hash %s", prev, i, h)
		}
		hashes[h] = i
	}
}

func TestSweepExpandDeterministic(t *testing.T) {
	doc := sweepDoc(`{"axes": [
		{"field": "run.accuracy", "values": [1, 0.9]},
		{"field": "design.masters[0].generator.gap", "values": [0, 8, 32]}
	]}`)
	ss, err := ParseSweep([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansions disagree on length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ha, _ := a[i].CanonicalHash()
		hb, _ := b[i].CanonicalHash()
		if ha != hb || a[i].Name != b[i].Name {
			t.Fatalf("point %d differs across expansions: %s/%s vs %s/%s",
				i, a[i].Name, ha, b[i].Name, hb)
		}
	}
}

func TestSweepGeneratorFieldReachesCompile(t *testing.T) {
	doc := sweepDoc(`{"axes": [
		{"field": "design.masters[0].generator.gap", "values": [0, 16]}
	]}`)
	ss, err := ParseSweep([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	points, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Design.Masters[0].Generator.Gap != 0 ||
		points[1].Design.Masters[0].Generator.Gap != 16 {
		t.Fatalf("generator gap not swept: %d/%d",
			points[0].Design.Masters[0].Generator.Gap,
			points[1].Design.Masters[0].Generator.Gap)
	}
	for _, p := range points {
		if _, _, err := p.Compile(); err != nil {
			t.Fatalf("point %s does not compile: %v", p.Name, err)
		}
	}
}

func TestPlainSpecIsASweepOfOne(t *testing.T) {
	ss, err := ParseSweep([]byte(sweepDoc("")))
	if err != nil {
		t.Fatal(err)
	}
	points, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("plain spec expanded to %d points", len(points))
	}
	hBase, _ := ss.Spec.CanonicalHash()
	hPoint, _ := points[0].CanonicalHash()
	if hBase != hPoint {
		t.Fatalf("single point hash %s differs from base %s", hPoint, hBase)
	}
}

func TestSweepRejections(t *testing.T) {
	cases := []struct {
		name  string
		sweep string
	}{
		{"no axes", `{"axes": []}`},
		{"empty values", `{"axes": [{"field": "run.accuracy", "values": []}]}`},
		{"duplicate field", `{"axes": [
			{"field": "run.accuracy", "values": [1]},
			{"field": "run.accuracy", "values": [0.5]}]}`},
		{"bad path", `{"axes": [{"field": "run..accuracy", "values": [1]}]}`},
		{"unsweepable name", `{"axes": [{"field": "name", "values": ["x"]}]}`},
		{"unsweepable sweep", `{"axes": [{"field": "sweep.axes", "values": [1]}]}`},
		{"too many points", fmt.Sprintf(`{"axes": [
			{"field": "run.accuracy", "values": [%s 1]},
			{"field": "run.lob_depth", "values": [%s 1]}]}`,
			strings.Repeat("0.5,", 40), strings.Repeat("8,", 40))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseSweep([]byte(sweepDoc(c.sweep))); err == nil {
				t.Fatalf("sweep %s accepted", c.sweep)
			}
		})
	}
}

func TestSweepBadPointValuesFailExpand(t *testing.T) {
	cases := []string{
		// Unknown field name: caught by the strict per-point re-parse.
		`{"axes": [{"field": "run.bogus_knob", "values": [1]}]}`,
		// Legal path, illegal value for the kind.
		`{"axes": [{"field": "run.accuracy", "values": [2.5]}]}`,
		// Array index out of range.
		`{"axes": [{"field": "design.masters[3].generator.gap", "values": [1]}]}`,
	}
	for _, sweep := range cases {
		ss, err := ParseSweep([]byte(sweepDoc(sweep)))
		if err != nil {
			continue // rejected even earlier, also fine
		}
		if _, err := ss.Expand(); err == nil {
			t.Fatalf("sweep %s expanded without error", sweep)
		}
	}
}

func TestSweepRejectsStaleRunFields(t *testing.T) {
	// Removed run fields: a sweep axis that sets one fails Expand, and a
	// base document carrying one fails ParseSweep, each with an error
	// naming the field.
	for _, field := range []string{
		"workers", "delta_cadence", "trace", "trace_ring", "measured_latency",
		"predict_idle", "predict_burst_starts", "paper_strict", "adaptive_threshold", "keep_trace",
		"fault_plan",
	} {
		axis := fmt.Sprintf(`{"axes": [{"field": "run.%s", "values": [1, 2]}]}`, field)
		ss, err := ParseSweep([]byte(sweepDoc(axis)))
		if err != nil {
			t.Fatalf("run.%s axis rejected before Expand: %v", field, err)
		}
		if _, err := ss.Expand(); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("run.%s axis: Expand err = %v, want one naming %s", field, err, field)
		}
		base := strings.Replace(sweepDoc(""), `"cycles": 2000`, fmt.Sprintf(`"cycles": 2000, %q: 4`, field), 1)
		if _, err := ParseSweep([]byte(base)); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("run.%s in the base: ParseSweep err = %v, want one naming %s", field, err, field)
		}
	}
}

func TestSweepMaxPointsOverride(t *testing.T) {
	vals := make([]string, 1500)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", i+1)
	}
	axis := fmt.Sprintf(`{"axes": [{"field": "run.lob_depth", "values": [%s]}]`,
		strings.Join(vals, ","))
	if _, err := ParseSweep([]byte(sweepDoc(axis + "}"))); err == nil {
		t.Fatal("1500-point sweep accepted without a max_points override")
	}
	ss, err := ParseSweep([]byte(sweepDoc(axis + `, "max_points": 2000}`)))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Points() != 1500 {
		t.Fatalf("Points() = %d", ss.Points())
	}
}

func TestSweepDocRoundTripsThroughJSON(t *testing.T) {
	doc := sweepDoc(`{"axes": [{"field": "run.accuracy", "values": [1, 0.5]}]}`)
	ss, err := ParseSweep([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := ParseSweep(enc)
	if err != nil {
		t.Fatalf("re-parse of marshaled sweep doc: %v\n%s", err, enc)
	}
	a, _ := ss.Expand()
	b, _ := ss2.Expand()
	if len(a) != len(b) {
		t.Fatalf("round trip changed point count %d -> %d", len(a), len(b))
	}
	for i := range a {
		ha, _ := a[i].CanonicalHash()
		hb, _ := b[i].CanonicalHash()
		if ha != hb {
			t.Fatalf("round trip changed point %d hash", i)
		}
	}
}
