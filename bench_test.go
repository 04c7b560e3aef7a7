// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus host-side throughput benchmarks of the
// library itself.
//
//	go test -bench=. -benchmem
//
// Modeled quantities (the paper's metrics) are attached to each
// benchmark as custom metrics:
//
//	modeled-kcyc/s   simulation performance on the virtual clock
//	gain-x           speedup over the conventional baseline
//
// while ns/op measures the host cost of reproducing the experiment.
package coemu_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"coemu"
	"coemu/internal/channel"
	"coemu/internal/device"
	"coemu/internal/perfmodel"
)

// parMap computes f(0..n-1) on a worker pool and returns the results in
// index order — the cmd/sweep -j pattern. Engine runs are independent
// and single-threaded, so DES sweeps scale with cores while their
// deterministic outputs stay ordered.
func parMap[T any](n int, f func(i int) T) []T {
	res := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return res
}

// streamDesign is the canonical ALS configuration: an RTL write-stream
// master in the accelerator, a TL memory in the simulator.
func streamDesign() coemu.Design {
	return coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name:   "dma",
			Domain: coemu.AccDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
					coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name:   "mem",
			Domain: coemu.SimDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
}

// slaDesign flips the placement so the simulator is the data source.
func slaDesign() coemu.Design {
	d := streamDesign()
	d.Masters[0].Domain = coemu.SimDomain
	d.Slaves[0].Domain = coemu.AccDomain
	return d
}

const benchCycles = 5000

// runModeled executes one engine run per iteration — spread across a
// worker pool, since runs are independent and deterministic — and
// reports the modeled performance metrics. ns/op therefore measures
// pooled wall time per run; the single-thread host numbers live in
// BenchmarkHostThroughput, which stays serial on purpose.
func runModeled(b *testing.B, d coemu.Design, cfg coemu.Config, conv float64) {
	b.Helper()
	var mu sync.Mutex
	var rep *coemu.Report
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := coemu.Run(d, cfg, benchCycles)
			if err != nil {
				b.Error(err)
				return
			}
			mu.Lock()
			rep = r
			mu.Unlock()
		}
	})
	if rep == nil {
		b.Fatal("no run completed")
	}
	b.ReportMetric(rep.Perf()/1e3, "modeled-kcyc/s")
	if conv > 0 {
		b.ReportMetric(rep.Perf()/conv, "gain-x")
	}
}

// conventionalPerf computes the conventional baseline once.
func conventionalPerf(b *testing.B, d coemu.Design) float64 {
	b.Helper()
	rep, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative}, benchCycles)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Perf()
}

// BenchmarkChannelCharacterization regenerates E1 (paper §1.2): the
// per-access cost and effective bandwidth of the layered transport for
// representative payload sizes.
func BenchmarkChannelCharacterization(b *testing.B) {
	stack := device.IPROVE()
	for _, words := range []int{1, 5, 64, 1024} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost = stack.AccessCost(device.SimToAcc, words).Seconds()
			}
			b.ReportMetric(cost*1e6, "modeled-us/access")
			b.ReportMetric(stack.EffectiveBandwidth(device.SimToAcc, words)/1e6, "modeled-Mwords/s")
			b.ReportMetric(100*stack.StartupFraction(device.SimToAcc, words), "startup-%")
		})
	}
}

// BenchmarkConventionalBaseline regenerates the paper's 38.9 kcycles/s
// conventional figure on the executable engine.
func BenchmarkConventionalBaseline(b *testing.B) {
	runModeled(b, streamDesign(), coemu.Config{Mode: coemu.Conservative}, 0)
}

// BenchmarkTable2ALS regenerates E2 (Table 2): the executable engine
// swept over the published accuracy grid in ALS mode with the paper's
// 1000 rollback variables.
func BenchmarkTable2ALS(b *testing.B) {
	d := streamDesign()
	conv := conventionalPerf(b, d)
	for _, p := range []float64{1.000, 0.990, 0.960, 0.900, 0.800, 0.600, 0.300, 0.100} {
		b.Run(fmt.Sprintf("p=%.3f", p), func(b *testing.B) {
			runModeled(b, d, coemu.Config{
				Mode: coemu.ALS, Accuracy: p, FaultSeed: 12345, RollbackVars: 1000,
			}, conv)
		})
	}
}

// BenchmarkFigure4Sweep regenerates E3 (Figure 4): the four
// (simulator speed × LOB depth) configurations at three representative
// accuracies each.
//
// LOB depths are scaled ×4 versus the paper's 64/8: the paper's model
// assumes 2 LOB words per run-ahead cycle while this engine's real wire
// encoding needs ~7-8, so depths 256/32 reproduce the paper's run-ahead
// spans (M=32 and M=4). See the Calibration section of ARCHITECTURE.md.
func BenchmarkFigure4Sweep(b *testing.B) {
	d := streamDesign()
	cfgs := []struct {
		sim float64
		lob int
	}{{1e5, 256}, {1e5, 32}, {1e6, 256}, {1e6, 32}}
	// The four conventional baselines are independent DES runs: compute
	// them on the worker pool before the measured sub-benchmarks start.
	convs := parMap(len(cfgs), func(i int) float64 {
		rep, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative, SimSpeed: cfgs[i].sim}, benchCycles)
		if err != nil {
			b.Error(err)
			return 0
		}
		return rep.Perf()
	})
	for i, cfg := range cfgs {
		conv := convs[i]
		if conv == 0 {
			b.Fatal("baseline run failed")
		}
		for _, p := range []float64{1, 0.9, 0.5} {
			name := fmt.Sprintf("sim=%.0fk/lob=%d/p=%.1f", cfg.sim/1e3, cfg.lob, p)
			b.Run(name, func(b *testing.B) {
				runModeled(b, d, coemu.Config{
					Mode: coemu.ALS, SimSpeed: cfg.sim, LOBDepth: cfg.lob,
					Accuracy: p, FaultSeed: 7, RollbackVars: 1000,
				}, conv)
			})
		}
	}
}

// BenchmarkSLASweep regenerates E4 (§6 SLA results): simulator-led runs
// at the two published simulator speeds.
func BenchmarkSLASweep(b *testing.B) {
	d := slaDesign()
	sims := []float64{1e5, 1e6}
	convs := parMap(len(sims), func(i int) float64 {
		rep, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative, SimSpeed: sims[i]}, benchCycles)
		if err != nil {
			b.Error(err)
			return 0
		}
		return rep.Perf()
	})
	for i, sim := range sims {
		conv := convs[i]
		if conv == 0 {
			b.Fatal("baseline run failed")
		}
		for _, p := range []float64{1, 0.9, 0.7} {
			b.Run(fmt.Sprintf("sim=%.0fk/p=%.1f", sim/1e3, p), func(b *testing.B) {
				runModeled(b, d, coemu.Config{
					Mode: coemu.SLA, SimSpeed: sim,
					Accuracy: p, FaultSeed: 7, RollbackVars: 1000,
				}, conv)
			})
		}
	}
}

// BenchmarkHeadlineAnalytic regenerates E5 plus the analytic Table 2 /
// Figure 4 computations themselves (they are what the paper actually
// published).
func BenchmarkHeadlineAnalytic(b *testing.B) {
	b.Run("table2", func(b *testing.B) {
		var rows []coemu.AnalyticRow
		for i := 0; i < b.N; i++ {
			rows = coemu.Table2()
		}
		b.ReportMetric(rows[0].Perf/1e3, "modeled-kcyc/s")
		b.ReportMetric(rows[0].Ratio, "gain-x")
	})
	b.Run("figure4", func(b *testing.B) {
		var s []coemu.Figure4Series
		for i := 0; i < b.N; i++ {
			s = coemu.Figure4()
		}
		b.ReportMetric(s[2].Rows[0].Perf/1e3, "modeled-kcyc/s")
	})
	b.Run("headline", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = coemu.HeadlineGainPercent()
		}
		b.ReportMetric(g, "gain-%")
	})
	b.Run("sla-breakeven", func(b *testing.B) {
		var r []coemu.SLAResult
		for i := 0; i < b.N; i++ {
			r = coemu.SLAClaims()
		}
		b.ReportMetric(r[1].BreakEven*100, "breakeven-%")
	})
	_ = perfmodel.Default()
}

// readStreamDesign puts the master in the simulator reading from an
// accelerator memory, the topology where remote address-phase
// prediction (and its extensions) is on the critical path.
func readStreamDesign() coemu.Design {
	return coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name:   "rdr",
			Domain: coemu.SimDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, false,
					coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name:   "mem",
			Domain: coemu.AccDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
}

// BenchmarkAblation quantifies the design choices beyond the paper that
// ARCHITECTURE.md lists under "The paper's contribution": the
// prediction extensions (idle continuation, stride-predicted burst
// starts) and the adaptive mode governor.
func BenchmarkAblation(b *testing.B) {
	d := readStreamDesign()
	conv := conventionalPerf(b, d)
	cases := []struct {
		name string
		cfg  coemu.Config
	}{
		{"als-paper", coemu.Config{Mode: coemu.ALS}},
		{"als+predict-idle", coemu.Config{Mode: coemu.ALS, PredictIdle: true}},
		{"als+predict-starts", coemu.Config{Mode: coemu.ALS, PredictBurstStarts: true}},
		{"als+both", coemu.Config{Mode: coemu.ALS, PredictIdle: true, PredictBurstStarts: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runModeled(b, d, c.cfg, conv)
		})
	}
	// Governor ablation at hostile accuracy: plain ALS drops below the
	// conventional baseline; the governor holds the floor near it.
	ds := streamDesign()
	convS := conventionalPerf(b, ds)
	b.Run("governor-off/p=0.05", func(b *testing.B) {
		runModeled(b, ds, coemu.Config{Mode: coemu.ALS, Accuracy: 0.05, FaultSeed: 8}, convS)
	})
	b.Run("governor-on/p=0.05", func(b *testing.B) {
		runModeled(b, ds, coemu.Config{Mode: coemu.ALS, Accuracy: 0.05, FaultSeed: 8, Adaptive: true}, convS)
	})
}

// gappedStreamDesign is the idle-heavy ALS split: INCR8 write bursts
// separated by long generator gaps, so most target cycles are
// provably quiescent — the workload the predicted-quiescence cycle
// batching exists for.
func gappedStreamDesign(gap int) coemu.Design {
	return coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name:   "dma",
			Domain: coemu.AccDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
					coemu.BurstIncr8, coemu.Size32, 0, gap, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name:   "mem",
			Domain: coemu.SimDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
}

// BenchmarkCycleBatching is the batched-vs-unbatched A/B of PR 3,
// serial on purpose (its metric is single-thread host speed). The
// idle-stream pairs isolate the predicted-quiescence fast path
// (CycleBatch=1 disables it; modeled metrics are bit-identical either
// way); the busy-stream pair isolates the channel accounting path
// against the wire codec over an in-process Queues transport on a
// workload where batching never fires. The row names are the keys of
// BENCH_baseline.json, so "loopback" names the accounting path.
func BenchmarkCycleBatching(b *testing.B) {
	cases := []struct {
		name string
		d    coemu.Design
		cfg  coemu.Config
		wire bool
	}{
		{"idle-stream/als/batch=1", gappedStreamDesign(48), coemu.Config{Mode: coemu.ALS, CycleBatch: 1}, false},
		{"idle-stream/als/batch=64", gappedStreamDesign(48), coemu.Config{Mode: coemu.ALS}, false},
		{"idle-stream/conservative/batch=1", gappedStreamDesign(48), coemu.Config{Mode: coemu.Conservative, CycleBatch: 1}, false},
		{"idle-stream/conservative/batch=64", gappedStreamDesign(48), coemu.Config{Mode: coemu.Conservative}, false},
		{"busy-stream/als/wire-codec", streamDesign(), coemu.Config{Mode: coemu.ALS}, true},
		{"busy-stream/als/loopback", streamDesign(), coemu.Config{Mode: coemu.ALS}, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var batched int64
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				if c.wire {
					cfg.Transport = channel.NewQueues() // a transport is per-run state
				}
				rep, err := coemu.Run(c.d, cfg, benchCycles)
				if err != nil {
					b.Fatal(err)
				}
				batched = rep.Stats.BatchedCycles
			}
			b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
			b.ReportMetric(float64(batched), "batched-cyc")
		})
	}
}

// multimasterDesign compiles the multimaster example spec once; the
// compiled design builds fresh component instances per engine run, so
// it is safe to reuse across benchmark iterations.
func multimasterDesign(b *testing.B) (coemu.Design, coemu.Config) {
	b.Helper()
	s, err := coemu.LoadSpec("examples/multimaster/spec.json")
	if err != nil {
		b.Fatal(err)
	}
	d, cfg, err := s.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return d, cfg
}

// BenchmarkHostThroughput measures the library's real (host) speed:
// target cycles simulated per host second, for the reference bus, the
// conservative engine and the optimistic engine.
func BenchmarkHostThroughput(b *testing.B) {
	d := streamDesign()
	b.Run("reference-bus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coemu.RunReference(d, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
	b.Run("conservative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative}, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
	b.Run("als", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coemu.Run(d, coemu.Config{Mode: coemu.ALS}, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
	b.Run("als-rollback-heavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := coemu.Config{Mode: coemu.ALS, Accuracy: 0.5, FaultSeed: 3}
			if _, err := coemu.Run(d, cfg, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
	// multimaster runs examples/multimaster: three masters and three
	// slaves split across both domains in auto mode, so arbitration,
	// rollback and roll-forth carry most of the host time.
	mmd, mmCfg := multimasterDesign(b)
	b.Run("multimaster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coemu.Run(mmd, mmCfg, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
	// rollback-storm mirrors examples/rollback-storm part 1: organic
	// mispredictions from a jittery slave the wait model cannot track,
	// so rollback and roll-forth dominate without the fault injector.
	b.Run("rollback-storm", func(b *testing.B) {
		dj := coemu.Design{
			Masters: []coemu.MasterSpec{{
				Name:   "dma",
				Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			}},
			Slaves: []coemu.SlaveSpec{{
				Name:      "flaky",
				Domain:    coemu.SimDomain,
				Region:    coemu.Region{Lo: 0, Hi: 0x80000},
				New:       func() coemu.Slave { return coemu.NewJitterMemory("flaky", 1, 2, 7) },
				WaitFirst: 1, WaitNext: 1,
			}},
		}
		for i := 0; i < b.N; i++ {
			if _, err := coemu.Run(dj, coemu.Config{Mode: coemu.ALS}, benchCycles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
	})
}
