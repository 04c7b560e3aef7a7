package core

import (
	"fmt"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/sim"
)

// DomainID identifies one of the two verification domains.
type DomainID uint8

// The two verification domains of the paper's Figure 2.
const (
	// SimDomain is the software simulator executing transaction-level
	// components.
	SimDomain DomainID = 0
	// AccDomain is the hardware accelerator executing RTL components.
	AccDomain DomainID = 1
)

// String returns the domain name.
func (d DomainID) String() string {
	if d == SimDomain {
		return "sim"
	}
	return "acc"
}

// Other returns the opposite domain.
func (d DomainID) Other() DomainID { return 1 - d }

// MasterSpec declares one bus master of a co-emulated design.
type MasterSpec struct {
	Name   string
	Domain DomainID
	// NewGen constructs the master's traffic generator. It is called
	// once per build (the reference build and the split build each get
	// fresh, identically-seeded instances — determinism is what makes
	// the equivalence check meaningful).
	NewGen func() ip.Generator
	// BusyEvery inserts a BUSY cycle before every n-th burst beat.
	BusyEvery int
	// Vars is the component's rollback-variable weight for the
	// store/restore cost model (0 uses a small default).
	Vars int
}

// SlaveSpec declares one bus slave of a co-emulated design.
type SlaveSpec struct {
	Name   string
	Domain DomainID
	Region bus.Region
	// New constructs the slave.
	New func() bus.Slave
	// WaitFirst/WaitNext declare the slave's nominal deterministic wait
	// profile and Cadence its two-cycle RETRY or SPLIT cadence (the
	// zero value: none). Together they configure the remote-side
	// response predictor, which runs the slave's timing automaton
	// (ip.SlaveTiming) on them. For slaves whose real timing differs
	// (jittery memories), the profile is the predictor's best guess and
	// mispredictions ensue — exactly the experiment the paper's
	// accuracy axis abstracts.
	WaitFirst, WaitNext int
	Cadence             ip.Cadence
	// IRQMask declares interrupt lines the slave owns (it must
	// implement bus.IRQSource if non-zero).
	IRQMask uint32
	// Vars is the rollback-variable weight (0 uses a small default).
	Vars int
}

// splitCapable reports whether the slave issues SPLIT responses: its
// cadence is a SPLIT one (ip.SplitEvery, or Resp alone for a slave
// whose cadence the predictor is not told). Such a slave must implement
// bus.SplitSource, and each half-bus learns from it whether the
// *remote* domain drives HSPLITx lines without instantiating the
// remote slave.
func (s SlaveSpec) splitCapable() bool { return s.Cadence.Resp == amba.RespSplit }

// Design is a complete co-emulated SoC description: components, their
// domain placement, and the address map.
type Design struct {
	Masters []MasterSpec
	Slaves  []SlaveSpec
	// OwnsDefault selects the domain that drives default-slave replies
	// (the simulator by default, where the "rest of the platform"
	// conventionally lives).
	OwnsDefault DomainID
}

// defaultVars is the rollback weight assumed for components that do not
// declare one.
const defaultVars = 25

// Validate checks the design for structural problems.
func (d Design) Validate() error {
	if len(d.Masters) == 0 {
		return fmt.Errorf("core: design has no masters")
	}
	if len(d.Masters) > amba.MaxMasters {
		return fmt.Errorf("core: design has %d masters, max %d", len(d.Masters), amba.MaxMasters)
	}
	names := map[string]bool{}
	for _, m := range d.Masters {
		if m.NewGen == nil {
			return fmt.Errorf("core: master %q has no generator", m.Name)
		}
		if m.Domain > AccDomain {
			return fmt.Errorf("core: master %q has invalid domain", m.Name)
		}
		if m.Vars < 0 || m.Vars > MaxVars {
			return fmt.Errorf("core: master %q Vars %d outside [0, %d]", m.Name, m.Vars, MaxVars)
		}
		if names[m.Name] {
			return fmt.Errorf("core: duplicate component name %q", m.Name)
		}
		names[m.Name] = true
	}
	var irqSeen uint32
	for _, s := range d.Slaves {
		if s.New == nil {
			return fmt.Errorf("core: slave %q has no constructor", s.Name)
		}
		if s.Domain > AccDomain {
			return fmt.Errorf("core: slave %q has invalid domain", s.Name)
		}
		if s.Vars < 0 || s.Vars > MaxVars {
			return fmt.Errorf("core: slave %q Vars %d outside [0, %d]", s.Name, s.Vars, MaxVars)
		}
		if names[s.Name] {
			return fmt.Errorf("core: duplicate component name %q", s.Name)
		}
		names[s.Name] = true
		if s.IRQMask >= 1<<amba.MaxIRQLines {
			// The packet header carries MaxIRQLines interrupt bits;
			// higher lines would be silently dropped on the wire and
			// diverge the domains on the first conservative exchange.
			return fmt.Errorf("core: slave %q IRQ mask %#x uses lines above the %d the wire encoding carries", s.Name, s.IRQMask, amba.MaxIRQLines)
		}
		if s.IRQMask&irqSeen != 0 {
			return fmt.Errorf("core: slave %q reuses IRQ lines %x", s.Name, s.IRQMask&irqSeen)
		}
		irqSeen |= s.IRQMask
	}
	if d.OwnsDefault > AccDomain {
		return fmt.Errorf("core: invalid OwnsDefault domain")
	}
	return nil
}

// referenceSystem is the monolithic golden model: the same components on
// a single bus.
type referenceSystem struct {
	bus     *bus.Bus
	tickers []sim.Clocked
	masters []*ip.TrafficMaster
}

// buildReference constructs the monolithic system.
func buildReference(d Design) (*referenceSystem, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	r := &referenceSystem{bus: bus.New("ref")}
	for _, ms := range d.Masters {
		m := ip.NewTrafficMaster(ms.Name, ms.NewGen(), ms.BusyEvery)
		r.masters = append(r.masters, m)
		r.bus.AddMaster(m)
	}
	for _, ss := range d.Slaves {
		s := ss.New()
		r.bus.MapSlave(s, ss.Region, ss.IRQMask)
		if c, ok := s.(sim.Clocked); ok {
			r.tickers = append(r.tickers, c)
		}
	}
	return r, nil
}

// step advances the reference system one cycle.
func (r *referenceSystem) step(cycle int64) amba.CycleState {
	res := r.bus.Step()
	for _, t := range r.tickers {
		t.Tick(cycle)
	}
	return res.State
}

// RunReference executes the monolithic golden model for the given number
// of cycles with the protocol checker attached and returns its MSABS
// trace. Co-emulated runs of the same design must match it cycle for
// cycle — the equivalence invariant of ARCHITECTURE.md's "Data flow of
// one run".
func RunReference(d Design, cycles int64) ([]amba.CycleState, error) {
	r, err := buildReference(d)
	if err != nil {
		return nil, err
	}
	var k amba.Checker
	trace := make([]amba.CycleState, 0, cycles)
	for i := int64(0); i < cycles; i++ {
		cs := r.step(i)
		if err := k.Check(cs); err != nil {
			return nil, fmt.Errorf("core: reference run: %w", err)
		}
		trace = append(trace, cs)
	}
	return trace, nil
}
