package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"coemu/internal/faultplan"
	"coemu/internal/rng"
	"coemu/internal/spec"
)

// designsPerRun is how many distinct seeded designs an engine workload
// cycles through. Every op after the first designsPerRun repeats an
// earlier spec, which is what the byte-identity oracle compares, and
// the modeled metrics average over the set so that one seed's draw
// moves them little.
const designsPerRun = 8

// source derives an independent deterministic random stream for one
// (seed, purpose, index) triple.
func source(seed uint64, salt, i int) *rng.Source {
	return rng.New(faultplan.Mix(seed, uint64(salt)<<32|uint64(i)))
}

// Stream salts.
const (
	saltDesign = iota + 1
	saltBody
	saltRepeat
	saltGrid
)

// examples holds the repository's example specs the workloads derive
// from.
type examples struct {
	quickstart, multimaster, dmaStream, splitLatency *spec.Spec
}

func loadExamples(root string) (*examples, error) {
	var ex examples
	for name, dst := range map[string]**spec.Spec{
		"quickstart":    &ex.quickstart,
		"multimaster":   &ex.multimaster,
		"dma-stream":    &ex.dmaStream,
		"split-latency": &ex.splitLatency,
	} {
		sp, err := spec.Load(filepath.Join(root, "examples", name, "spec.json"))
		if err != nil {
			return nil, err
		}
		*dst = sp
	}
	return &ex, nil
}

// clone deep-copies a spec through its JSON form, so variants never
// share generator pointers with the example they derive from.
func clone(sp *spec.Spec) *spec.Spec {
	data, err := json.Marshal(sp)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal spec: %v", err))
	}
	var out spec.Spec
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("bench: unmarshal spec: %v", err))
	}
	return &out
}

func body(sp *spec.Spec) []byte {
	data, err := json.Marshal(sp)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal spec: %v", err))
	}
	return data
}

// streamDesign is design i of the stream-als set: the quickstart split
// (INCR8 write stream on the accelerator, SRAM on the simulator, ALS).
// Design 0 is the example itself at 50,000 cycles, the Table 2 anchor;
// the others shift the stream window inside the SRAM region and the
// cycle budget by up to 1%, neither of which changes the traffic's
// character.
func (ex *examples) streamDesign(seed uint64, i int, cycles int64) *spec.Spec {
	sp := clone(ex.quickstart)
	sp.Run.Cycles = cycles
	if i == 0 {
		return sp
	}
	r := source(seed, saltDesign, i)
	w := sp.Design.Masters[0].Generator.Window
	off := spec.Addr(0x400 * r.Intn(64))
	w.Lo, w.Hi = w.Lo+off, w.Hi+off
	sp.Run.Cycles = cycles - cycles/100 + int64(r.Intn(int(cycles/50)+1))
	return sp
}

// multimasterDesign is design i of the multimaster-auto set: the
// multimaster example (three masters, three slaves across both domains,
// auto mode). Design 0 is the example. In the others the stream gap
// alternates between the example's 4 and 5 with the design index, and
// the seed draws the CPU generator seed and the DMA gap (5-7). The
// stream gap moves modeled performance by ~2.5%, so fixing its share of
// the set, instead of drawing it, keeps every seed's set alike.
func (ex *examples) multimasterDesign(seed uint64, i int) *spec.Spec {
	sp := clone(ex.multimaster)
	if i == 0 {
		return sp
	}
	r := source(seed, saltDesign, i)
	for mi := range sp.Design.Masters {
		g := &sp.Design.Masters[mi].Generator
		switch g.Kind {
		case "cpu":
			g.Seed = 1 + uint64(r.Intn(1<<30))
		case "stream":
			g.Gap += i % 2
		case "dma":
			g.Gap += r.Intn(3) - 1
		}
	}
	return sp
}

// idleStream is the idle-heavy ALS split: INCR8 write bursts separated
// by 48-cycle gaps, the traffic cycle batching exists for.
func idleStream() *spec.Spec {
	return &spec.Spec{
		Name: "idle-stream",
		Design: spec.DesignSpec{
			Masters: []spec.Master{{Name: "dma", Domain: "acc", Generator: spec.Generator{
				Kind: "stream", Window: &spec.Window{Lo: 0, Hi: 0x40000},
				Write: true, Burst: "INCR8", Bits: 32, Gap: 48,
			}}},
			Slaves: []spec.Slave{{Name: "mem", Domain: "sim", Kind: "sram",
				Region: spec.Window{Lo: 0, Hi: 0x80000}}},
		},
		Run: spec.Run{Mode: "als", Cycles: 20000},
	}
}

// mixBody is fresh body i of the daemon-mix request stream: the idle
// gap-48 stream, quickstart, dma-stream and split-latency specs in turn,
// each at a seeded cycle budget in [5k, 20k]. Taking the families in
// turn keeps every seed's mix (and the modeled metrics over its first
// bodies) balanced across them; the idle stream comes first so that the
// traced pass, which measures body 0, sees cycle batching.
func (ex *examples) mixBody(seed uint64, i int) *spec.Spec {
	r := source(seed, saltBody, i)
	var sp *spec.Spec
	switch i % 4 {
	case 0:
		sp = idleStream()
	case 1:
		sp = clone(ex.quickstart)
	case 2:
		sp = clone(ex.dmaStream)
	default:
		sp = clone(ex.splitLatency)
	}
	sp.Run.Cycles = 5000 + int64(r.Intn(15001))
	return sp
}

// gridAxes sweeps the paper's Table 2 accuracy axis at two LOB depths:
// gridSize points per grid.
const (
	gridSize = 16
	gridAxes = `[
  {"field": "run.accuracy", "values": [1, 0.99, 0.96, 0.9, 0.8, 0.6, 0.3, 0.1]},
  {"field": "run.lob_depth", "values": [64, 32]}
]`
)

// grid expands a 16-point sweep over base at the given cycle budget.
// Accuracy below 1 arms the engine's fault injector, seeded per grid.
func grid(base *spec.Spec, cycles int64, faultSeed uint64) ([]*spec.Spec, error) {
	b := clone(base)
	b.Run.Cycles = cycles
	b.Run.FaultSeed = faultSeed
	doc, err := json.Marshal(struct {
		*spec.Spec
		Sweep json.RawMessage `json:"sweep"`
	}{b, json.RawMessage(`{"axes": ` + gridAxes + `}`)})
	if err != nil {
		return nil, err
	}
	ss, err := spec.ParseSweep(doc)
	if err != nil {
		return nil, err
	}
	return ss.Expand()
}
