// Package coemu is a transaction-level hardware/software co-emulation
// framework implementing the prediction packetizing scheme of Lee,
// Chung, Ahn, Lee and Kyung, "A Prediction Packetizing Scheme for
// Reducing Channel Traffic in Transaction-Level Hardware/Software
// Co-Emulation" (DATE 2005).
//
// An SoC design — AHB bus masters and slaves, each assigned to either
// the software simulator domain (transaction-level components) or the
// hardware accelerator domain (RTL components) — is split across two
// half-bus models connected by a cost-modeled simulator–accelerator
// channel. The engine synchronizes the domains either conservatively
// (both domains exchange signal values every target cycle, paying the
// channel's 12.2 µs startup overhead twice per cycle) or optimistically:
// a leader domain runs ahead predicting the other domain's responses,
// packetizes dozens of cycles into one burst channel access, and rolls
// back when the lagger detects a misprediction.
//
// # Quick start
//
//	design := coemu.Design{
//	    Masters: []coemu.MasterSpec{{
//	        Name:   "dma",
//	        Domain: coemu.AccDomain, // an RTL block in the accelerator
//	        NewGen: func() coemu.Generator {
//	            return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x4000},
//	                true, coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
//	        },
//	    }},
//	    Slaves: []coemu.SlaveSpec{{
//	        Name:   "mem",
//	        Domain: coemu.SimDomain, // a TL model in the simulator
//	        Region: coemu.Region{Lo: 0, Hi: 0x8000},
//	        New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
//	    }},
//	}
//	rep, err := coemu.Run(design, coemu.Config{Mode: coemu.ALS}, 100000)
//	// rep.Perf() is the modeled simulation performance in cycles/sec.
//
// The virtual-time report breaks down exactly like the paper's Table 2:
// simulator time, accelerator time, state store/restore time and channel
// time per committed target cycle.
//
// The analytic counterpart of the engine lives behind Table2, Figure4,
// SLAClaims and HeadlineGainPercent, which regenerate the paper's
// published evaluation.
package coemu

import (
	"context"
	"io"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/core"
	"coemu/internal/device"
	"coemu/internal/ip"
	"coemu/internal/perfmodel"
	"coemu/internal/spec"
	"coemu/internal/trace"
	"coemu/internal/workload"
)

// Core design and engine types.
type (
	// Design describes a complete SoC: components and domain placement.
	Design = core.Design
	// MasterSpec declares one bus master.
	MasterSpec = core.MasterSpec
	// SlaveSpec declares one bus slave.
	SlaveSpec = core.SlaveSpec
	// Config parameterizes a run (mode, speeds, LOB depth, accuracy...).
	Config = core.Config
	// Report is the outcome of a run: virtual-time ledger, behavioral
	// counters, channel statistics and (optionally) the MSABS trace.
	Report = core.Report
	// Mode selects conservative or optimistic synchronization.
	Mode = core.Mode
	// DomainID places a component in the simulator or the accelerator.
	DomainID = core.DomainID
	// Engine drives one co-emulation session.
	Engine = core.Engine
	// Stats carries the engine's behavioral counters.
	Stats = core.Stats
)

// Bus-facing component types.
type (
	// Region is a half-open address window routed to one slave.
	Region = bus.Region
	// Slave is the AHB slave interface.
	Slave = bus.Slave
	// Generator supplies transfers to a traffic master.
	Generator = ip.Generator
	// Xfer is one generated bus transaction.
	Xfer = ip.Xfer
	// Window is an address range for workload generators.
	Window = workload.Window
	// CycleState is the per-cycle MSABS record (full bus state).
	CycleState = amba.CycleState
)

// Domain placement.
const (
	// SimDomain runs transaction-level components on the simulator.
	SimDomain = core.SimDomain
	// AccDomain runs RTL components on the accelerator.
	AccDomain = core.AccDomain
)

// Operating modes.
const (
	// Conservative synchronizes every cycle (the paper's baseline).
	Conservative = core.Conservative
	// SLA lets the simulator lead (Simulator Leading Accelerator).
	SLA = core.SLA
	// ALS lets the accelerator lead (Accelerator Leading Simulator).
	ALS = core.ALS
	// Auto picks the leader per transition from the data-flow direction.
	Auto = core.Auto
)

// AHB vocabulary re-exported for building workloads.
type (
	// Burst is the HBURST encoding.
	Burst = amba.Burst
	// Size is the HSIZE encoding.
	Size = amba.Size
)

// Burst types.
const (
	BurstSingle = amba.BurstSingle
	BurstIncr   = amba.BurstIncr
	BurstWrap4  = amba.BurstWrap4
	BurstIncr4  = amba.BurstIncr4
	BurstWrap8  = amba.BurstWrap8
	BurstIncr8  = amba.BurstIncr8
	BurstWrap16 = amba.BurstWrap16
	BurstIncr16 = amba.BurstIncr16
)

// Transfer sizes supported by the 32-bit data bus.
const (
	Size8  = amba.Size8
	Size16 = amba.Size16
	Size32 = amba.Size32
)

// NewEngine builds the split co-emulation system for a design.
func NewEngine(d Design, cfg Config) (*Engine, error) { return core.NewEngine(d, cfg) }

// Run builds and executes a co-emulation session for the given number
// of target cycles.
func Run(d Design, cfg Config, cycles int64) (*Report, error) {
	return RunContext(context.Background(), d, cfg, cycles)
}

// RunContext is Run with cancellation: the engine polls ctx at
// domain-cycle granularity (without allocating in the hot loop), so a
// cancel or deadline lands within one target cycle of work and the run
// returns ctx.Err().
func RunContext(ctx context.Context, d Design, cfg Config, cycles int64) (*Report, error) {
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, cycles)
}

// RunReference executes the monolithic golden model of the design and
// returns its MSABS trace; co-emulated traces must match it exactly.
func RunReference(d Design, cycles int64) ([]CycleState, error) {
	return core.RunReference(d, cycles)
}

// Slave constructors.

// NewSRAM creates a zero-wait memory slave.
func NewSRAM(name string) *ip.Memory { return ip.NewSRAM(name) }

// NewMemory creates a memory slave with a deterministic wait profile:
// firstWait cycles for the first beat it ever serves, nextWait for
// every later one.
func NewMemory(name string, firstWait, nextWait int) *ip.Memory {
	return ip.NewMemory(name, firstWait, nextWait)
}

// NewJitterMemory creates a memory with pseudo-random extra latency in
// [0, spread] per beat — traffic the response predictor cannot track,
// producing organic mispredictions and rollbacks.
func NewJitterMemory(name string, base, spread int, seed uint64) *ip.JitterMemory {
	return ip.NewJitterMemory(name, base, spread, seed)
}

// NewRetryMemory creates a memory that RETRYs the first attempt of every
// retryEvery-th beat.
func NewRetryMemory(name string, waits, retryEvery int) *ip.RetryMemory {
	return ip.NewRetryMemory(name, waits, retryEvery)
}

// NewSplitMemory creates a memory that answers every splitEvery-th beat
// with a SPLIT response, releasing the parked master via its HSPLITx
// line releaseAfter cycles later. Declare SplitCapable on its SlaveSpec.
func NewSplitMemory(name string, waits, splitEvery, releaseAfter int) *ip.SplitMemory {
	return ip.NewSplitMemory(name, waits, splitEvery, releaseAfter)
}

// NewErrorSlave creates a slave answering every beat with a two-cycle
// ERROR.
func NewErrorSlave(name string) *ip.ErrorSlave { return ip.NewErrorSlave(name) }

// NewIRQPeriph creates a register-file peripheral with a countdown
// interrupt on the given IRQ line bit.
func NewIRQPeriph(name string, line uint32) *ip.IRQPeriph { return ip.NewIRQPeriph(name, line) }

// Workload generator constructors.

// NewStream creates a unidirectional burst stream through a window —
// the linearly-addressed traffic the paper's prediction thrives on.
func NewStream(win Window, write bool, burst Burst, size Size, incrLen, gap int, max int64) *workload.Stream {
	return workload.NewStream(win, write, burst, size, incrLen, gap, max)
}

// NewDMACopy creates a DMA-style generator alternating read bursts from
// src with write bursts to dst.
func NewDMACopy(src, dst Window, burst Burst, gap int, max int64) *workload.DMACopy {
	return workload.NewDMACopy(src, dst, burst, gap, max)
}

// NewCPU creates a randomized CPU-like generator over the windows.
func NewCPU(windows []Window, writeRatio float64, maxGap int, max int64, seed uint64) *workload.CPU {
	return workload.NewCPU(windows, writeRatio, maxGap, max, seed)
}

// NewSequence creates a generator replaying a fixed transfer list.
func NewSequence(xfers ...Xfer) *workload.Sequence { return workload.NewSequence(xfers...) }

// Declarative design specs.

// Spec is a JSON-serializable description of a complete run: the SoC
// design (masters, slaves, generators, domain placement) plus the
// engine configuration and cycle budget. Spec.Compile yields the
// (Design, Config) pair; Spec.CanonicalHash is the deterministic run
// identity the coemud result cache keys on.
type Spec = spec.Spec

// ParseSpec decodes and validates a JSON run spec.
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// LoadSpec reads and parses a JSON run spec file.
func LoadSpec(path string) (*Spec, error) { return spec.Load(path) }

// SweepSpec is a run spec plus an optional parameter grid ("sweep"
// block). SweepSpec.Expand materializes the grid as concrete Specs,
// each with its own canonical hash — the unit cmd/sweep -grid and the
// coemud /v1/sweep endpoint fan out over the worker pool.
type SweepSpec = spec.SweepSpec

// ParseSweepSpec decodes and validates a JSON sweep document.
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return spec.ParseSweep(data) }

// LoadSweepSpec reads and parses a JSON sweep document file.
func LoadSweepSpec(path string) (*SweepSpec, error) { return spec.LoadSweep(path) }

// Analytic model (the paper's §6 evaluation).

type (
	// AnalyticParams holds the closed-form model's constants.
	AnalyticParams = perfmodel.Params
	// AnalyticRow is one Table 2 line.
	AnalyticRow = perfmodel.Row
	// Figure4Series is one curve of Figure 4.
	Figure4Series = perfmodel.Figure4Series
	// SLAResult captures an SLA max-gain/break-even pair.
	SLAResult = perfmodel.SLAResult
)

// AnalyticDefaults returns the paper's Table 2 configuration.
func AnalyticDefaults() AnalyticParams { return perfmodel.Default() }

// Table2 regenerates the paper's Table 2 (ALS accuracy sweep).
func Table2() []AnalyticRow { return perfmodel.Table2() }

// Figure4 regenerates the paper's Figure 4 (four-configuration sweep).
func Figure4() []Figure4Series { return perfmodel.Figure4() }

// SLAClaims regenerates the §6 SLA maximum gains and break-evens.
func SLAClaims() []SLAResult { return perfmodel.SLA() }

// HeadlineGainPercent returns the abstract's "1500%" headline gain.
func HeadlineGainPercent() float64 { return perfmodel.HeadlineGain() }

// Channel transport model.

// TransportStack is the layered host-accelerator transport cost model.
type TransportStack = device.Stack

// IPROVEStack returns the transport stack calibrated to the paper's
// measured iPROVE constants (12.2 µs startup, 49.95/75.73 ns per word).
func IPROVEStack() TransportStack { return device.IPROVE() }

// Trace output.

// Protocol tracing re-exported so library users can attach a recorder
// via Config.Tracer and export what it captured.
type (
	// TraceRecorder is the ring-buffered protocol-event recorder
	// accepted by Config.Tracer.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded protocol event.
	TraceEvent = trace.Event
)

// NewTraceRecorder returns a recorder whose ring holds up to the given
// number of events (0 picks the default capacity).
func NewTraceRecorder(ring int) *TraceRecorder { return trace.NewRecorder(ring) }

// WriteChromeTrace writes recorded events in Chrome trace_event form,
// loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// WriteVCD dumps a trace as a VCD waveform.
func WriteVCD(w io.Writer, module string, cycles []CycleState, timescaleNs int) error {
	return trace.WriteVCD(w, module, cycles, timescaleNs)
}

// WriteTraceCSV dumps a trace as CSV.
func WriteTraceCSV(w io.Writer, cycles []CycleState) error {
	return trace.WriteCSV(w, cycles)
}
