package core

import (
	"context"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/channel"
	"coemu/internal/ip"
	"coemu/internal/workload"
)

// Allocation-regression guards for the engine hot path. The steady-state
// cycle loop — bus evaluate/commit, channel pack/send/recv/unpack, LOB
// deposit and flush, and the once-per-transition rollback store and
// restore — must not allocate: every buffer is engine-, bus-, channel-,
// component- or registry-owned scratch reused across cycles. These
// tests pin that property so it cannot silently rot. Most guards run
// the accounting path; the *Codec variants run the same windows with a
// channel.Queues transport, so every access also takes the wire-codec
// round trip. The warm-up loops below fill every reusable buffer
// (snapshot ring slots, page stashes, generator data pools, transport
// free-lists) before the measured window, so the asserted bound is
// exactly zero.

// zeroStream is a write-burst generator with no per-transfer heap state:
// Data stays nil (the master drives zero words), so fetching a transfer
// allocates nothing — unlike workload.Stream, which builds a fresh Data
// slice per write burst. That isolates the engine's own allocations from
// workload-owned ones.
type zeroStream struct {
	lo, hi amba.Addr
	cursor amba.Addr
}

func (z *zeroStream) Next() (ip.Xfer, bool) {
	x := ip.Xfer{Addr: z.cursor, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8}
	const span = 8 * 4
	z.cursor += span
	if z.cursor+span > z.hi {
		z.cursor = z.lo
	}
	return x, true
}

func (z *zeroStream) SaveInto(prev any) any {
	p, ok := prev.(*amba.Addr)
	if !ok {
		p = new(amba.Addr)
	}
	*p = z.cursor
	return p
}

func (z *zeroStream) Restore(v any) { z.cursor = *(v.(*amba.Addr)) }

// allocDesign is the canonical ALS split (acc-side write master, sim-side
// memory) over the zero-alloc generator.
func allocDesign() Design {
	return Design{
		Masters: []MasterSpec{{
			Name:   "dma",
			Domain: AccDomain,
			NewGen: func() ip.Generator { return &zeroStream{lo: 0, hi: 0x4000} },
		}},
		Slaves: []SlaveSpec{{
			Name:   "mem",
			Domain: SimDomain,
			Region: bus.Region{Lo: 0, Hi: 0x8000},
			New:    func() bus.Slave { return ip.NewSRAM("mem") },
		}},
	}
}

func TestConservativeCycleAllocFree(t *testing.T) {
	checkConservativeAllocFree(t, Config{Mode: Conservative})
}

func TestConservativeCycleAllocFreeCodec(t *testing.T) {
	checkConservativeAllocFree(t, Config{Mode: Conservative, Transport: channel.NewQueues()})
}

func checkConservativeAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	e, err := NewEngine(allocDesign(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run with a live (non-nil) cancellation channel so the per-cycle
	// context check is measured on its real RunContext configuration.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	// Warm up: grow the scratch buffers, channel pools and the master's
	// beat log well past what the measured window will touch.
	for i := 0; i < 3000; i++ {
		if err := e.conservativeCycle(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state conservative cycles allocated %.1f objects per 100 cycles, want 0", allocs)
	}
}

// TestALSTransitionAllocFreeWorkloadStream runs the same guard over the
// real workload.Stream generator: since its per-burst Data slices are
// pooled (rollback-safely), the full ALS loop — generator included — no
// longer allocates in steady state.
func TestALSTransitionAllocFreeWorkloadStream(t *testing.T) {
	d := allocDesign()
	d.Masters[0].NewGen = func() ip.Generator {
		return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
			amba.BurstIncr8, amba.Size32, 0, 0, 0)
	}
	e, err := NewEngine(d, Config{Mode: ALS})
	if err != nil {
		t.Fatal(err)
	}
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		transition()
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("ALS transition over workload.Stream allocated %.1f objects, want 0", allocs)
	}
}

// TestBatchedPathsAllocFree pins the zero-alloc property on the
// predicted-quiescence fast path: an idle-heavy gapped stream drives
// the run-ahead batch, the follow-up batch and (in conservative mode)
// the conservative stretch batch, and none of them may allocate in
// steady state.
func TestBatchedPathsAllocFree(t *testing.T) {
	for _, mode := range []Mode{ALS, Conservative} {
		t.Run(mode.String(), func(t *testing.T) {
			d := allocDesign()
			d.Masters[0].NewGen = func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
					amba.BurstIncr8, amba.Size32, 0, 48, 0)
			}
			e, err := NewEngine(d, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.done = ctx.Done()
			step := func() {
				leader, decl := e.pickLeader()
				e.recordDeclines(decl, 1)
				if leader == nil {
					if err := e.conservativeCycle(); err != nil {
						t.Fatal(err)
					}
					if err := e.batchConservative(1<<30, decl); err != nil {
						t.Fatal(err)
					}
					return
				}
				if _, err := e.transition(leader, 1<<30); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 500; i++ {
				step()
			}
			if e.stats.BatchedCycles == 0 {
				t.Fatal("batched fast path never fired; the guard would prove nothing")
			}
			allocs := testing.AllocsPerRun(20, step)
			if allocs != 0 {
				t.Fatalf("batched %v step allocated %.1f objects, want 0", mode, allocs)
			}
		})
	}
}

// TestRollbackHeavyAllocFree pins the zero-alloc property on the
// rollback-heavy steady state: with every other prediction check
// injected wrong, each step exercises the snapshot save, the restore
// and the roll-forth replay, and none of it may allocate once the
// snapshot buffers are warm.
func TestRollbackHeavyAllocFree(t *testing.T) {
	d := allocDesign()
	d.Masters[0].NewGen = func() ip.Generator {
		return workload.NewStream(workload.Window{Lo: 0, Hi: 0x4000}, true,
			amba.BurstIncr8, amba.Size32, 0, 0, 0)
	}
	e, err := NewEngine(d, Config{Mode: ALS, Accuracy: 0.5, FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		transition()
	}
	if e.stats.Rollbacks == 0 {
		t.Fatal("no rollbacks; the guard would prove nothing")
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("rollback-heavy transition allocated %.1f objects, want 0", allocs)
	}
}

func TestALSTransitionAllocFree(t *testing.T) {
	checkALSTransitionAllocFree(t, Config{Mode: ALS})
}

func TestALSTransitionAllocFreeCodec(t *testing.T) {
	checkALSTransitionAllocFree(t, Config{Mode: ALS, Transport: channel.NewQueues()})
}

func checkALSTransitionAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	e, err := NewEngine(allocDesign(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	transition := func() {
		leader := e.chooseLeader()
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			return
		}
		n, err := e.transition(leader, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("transition committed no cycles")
		}
	}
	for i := 0; i < 300; i++ {
		transition()
	}
	allocs := testing.AllocsPerRun(20, transition)
	if allocs != 0 {
		t.Fatalf("clean ALS transition allocated %.1f objects, want 0", allocs)
	}
}

// touched returns a memory slave whose pages in [lo, hi) already exist,
// so lazily allocated pages stay out of a measured window.
func touched(m *ip.Memory, lo, hi amba.Addr) *ip.Memory {
	for a := lo; a < hi; a += 0x1000 {
		m.PokeWord(a, 0)
	}
	return m
}

// multimasterAllocDesign is the auto-mode multimaster topology of
// examples/multimaster in compact windows: a write stream, a DMA copy
// engine, a scratchpad and an IRQ timer on the accelerator; a CPU
// generator and a waited DRAM on the simulator. Either domain leads, so
// the rb_stores and rb_restores cover a CPU generator, a DMA, an IRQ
// peripheral, Memory slaves and the predictors' remote wait models.
func multimasterAllocDesign() Design {
	return Design{
		Masters: []MasterSpec{
			{Name: "vdma", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewStream(workload.Window{Lo: 0, Hi: 0x2000}, true,
					amba.BurstIncr8, amba.Size32, 0, 4, 0)
			}},
			{Name: "cpu", Domain: SimDomain, NewGen: func() ip.Generator {
				return workload.NewCPU([]workload.Window{{Lo: 0, Hi: 0x2000}, {Lo: 0x10000, Hi: 0x11000}},
					0.6, 5, 0, 2024)
			}},
			{Name: "pdma", Domain: AccDomain, NewGen: func() ip.Generator {
				return workload.NewDMACopy(workload.Window{Lo: 0, Hi: 0x1000},
					workload.Window{Lo: 0x10000, Hi: 0x11000}, amba.BurstIncr4, 6, 0)
			}},
		},
		Slaves: []SlaveSpec{
			{Name: "dram", Domain: SimDomain, Region: bus.Region{Lo: 0, Hi: 0x10000},
				New:       func() bus.Slave { return touched(ip.NewMemory("dram", 2, 1), 0, 0x2000) },
				WaitFirst: 2, WaitNext: 1},
			{Name: "spm", Domain: AccDomain, Region: bus.Region{Lo: 0x10000, Hi: 0x14000},
				New: func() bus.Slave { return touched(ip.NewSRAM("spm"), 0x10000, 0x11000) }},
			{Name: "timer", Domain: AccDomain, Region: bus.Region{Lo: 0x20000, Hi: 0x20100},
				New:     func() bus.Slave { return ip.NewIRQPeriph("timer", 0x1) },
				IRQMask: 0x1, WaitFirst: 1, WaitNext: 1},
		},
	}
}

// TestMultimasterAutoAllocFree pins the zero-alloc property on the
// auto-mode multimaster topology, the rollback-heaviest built-in
// design: once warm, a window of transitions that stores, restores and
// rolls forth in both domains allocates nothing.
func TestMultimasterAutoAllocFree(t *testing.T) {
	checkMultimasterAutoAllocFree(t, Config{Mode: Auto})
}

func TestMultimasterAutoAllocFreeCodec(t *testing.T) {
	checkMultimasterAutoAllocFree(t, Config{Mode: Auto, Transport: channel.NewQueues()})
}

func checkMultimasterAutoAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	e, err := NewEngine(multimasterAllocDesign(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.done = ctx.Done()
	step := func() {
		leader, decl := e.pickLeader()
		e.recordDeclines(decl, 1)
		if leader == nil {
			if err := e.conservativeCycle(); err != nil {
				t.Fatal(err)
			}
			if err := e.batchConservative(1<<30, decl); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := e.transition(leader, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	window := func() {
		for i := 0; i < 50; i++ {
			step()
		}
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	before := e.stats
	allocs := testing.AllocsPerRun(10, window)
	st := e.stats
	for id, led := range st.TransitionsByLead {
		if led == before.TransitionsByLead[id] {
			t.Fatalf("%v never led in the measured window; the guard would prove nothing", DomainID(id))
		}
	}
	if st.Stores == before.Stores || st.Restores == before.Restores {
		t.Fatalf("measured window stored %d and restored %d times; the guard needs both",
			st.Stores-before.Stores, st.Restores-before.Restores)
	}
	if allocs != 0 {
		t.Fatalf("multimaster auto window allocated %.1f objects, want 0", allocs)
	}
}
