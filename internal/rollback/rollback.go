// Package rollback provides the state store/restore machinery the
// optimistic co-emulation scheme depends on: the leader domain stores its
// state before running ahead (the paper's rb_store, P-5) and restores it
// when the lagger reports a misprediction (rb_restore, S-6).
//
// Components register as Snapshotters with a Registry. One
// Registry.SaveInto captures every component; Restore rewinds them all.
// The cost of a store/restore is modeled, not measured: a hardware
// accelerator shadows its registers in parallel (tens of nanoseconds
// regardless of state size), while a software simulator copies its
// rollback variables one by one (cost linear in the variable count).
// Both cost models come from fitting the paper's Table 2 and SLA
// figures; see the Calibration section of ARCHITECTURE.md.
//
// Registries are not safe for concurrent use: each domain owns its
// registry exclusively, and the engine drives it from one goroutine.
package rollback

import (
	"fmt"
	"time"
)

// Snapshotter is implemented by every stateful component of a leader
// domain. SaveInto captures the component's state, recycling prev — a
// value an earlier SaveInto of the same component returned — instead of
// heap-allocating; nil or a foreign value makes it allocate. Restore
// with the returned value must reproduce the exact externally visible
// behavior, or roll-forth replay diverges and the equivalence invariant
// breaks.
//
// The contract is the leader's rollback discipline: at most one
// snapshot is live at a time. Only the most recent save may be
// restored, any number of times; a save may invalidate every earlier
// one (ip.Memory's page stash does).
type Snapshotter interface {
	SaveInto(prev any) any
	Restore(any)
}

// CostModel prices a store or restore of n rollback variables.
type CostModel struct {
	// StoreBase/RestoreBase are fixed per-operation costs.
	StoreBase   time.Duration
	RestoreBase time.Duration
	// StorePerVarPs/RestorePerVarPs are per-rollback-variable costs in
	// picoseconds (time.Duration cannot express sub-nanosecond values);
	// zero for hardware shadow-register stores, which copy in parallel.
	StorePerVarPs   int64
	RestorePerVarPs int64
}

// StoreCost returns the modeled duration of one state store.
func (m CostModel) StoreCost(vars int) time.Duration {
	return m.StoreBase + time.Duration(int64(vars)*m.StorePerVarPs/1000)
}

// RestoreCost returns the modeled duration of one state restore.
func (m CostModel) RestoreCost(vars int) time.Duration {
	return m.RestoreBase + time.Duration(int64(vars)*m.RestorePerVarPs/1000)
}

// HardwareCost models an accelerator that stores its state into shadow
// registers in parallel: the cost is flat and tiny. The constants are
// fitted from Table 2 (Tstore at p=1.0 gives ~15 ns per store; Trestore
// rows give ~29 ns per restore).
func HardwareCost() CostModel {
	return CostModel{StoreBase: 15 * time.Nanosecond, RestoreBase: 29 * time.Nanosecond}
}

// SoftwareCost models a simulator that copies its rollback variables in
// software. The per-variable constant (~4.7 ns/var) is fitted from the
// paper's SLA maximum-gain figures (3.25 at 100 kcycles/s, 15.34 at
// 1,000 kcycles/s); with the paper's 1000 rollback variables a store
// costs ~4.7 µs.
func SoftwareCost() CostModel {
	return CostModel{
		StoreBase: 100 * time.Nanosecond, RestoreBase: 100 * time.Nanosecond,
		StorePerVarPs: 4700, RestorePerVarPs: 4700,
	}
}

// Registry holds the snapshotters of one domain in registration order.
type Registry struct {
	snaps []Snapshotter
	vars  int
	seq   uint64 // number of saves; the restorable snapshot carries it
}

// Snapshot is an atomic capture of a whole Registry. It stays
// restorable only while it is its registry's most recent save.
type Snapshot struct {
	values []any
	reg    *Registry
	seq    uint64
}

// Register adds a snapshotter under a diagnostic name. The extra
// rollback-variable count vars feeds the cost model (it approximates how
// much state the component contributes).
func (r *Registry) Register(name string, s Snapshotter, vars int) {
	if s == nil {
		panic(fmt.Sprintf("rollback: register nil snapshotter %q", name))
	}
	if vars < 0 {
		panic(fmt.Sprintf("rollback: negative var count for %q", name))
	}
	r.snaps = append(r.snaps, s)
	r.vars += vars
}

// Vars returns the total number of registered rollback variables.
func (r *Registry) Vars() int { return r.vars }

// Components returns how many snapshotters are registered.
func (r *Registry) Components() int { return len(r.snaps) }

// SaveInto captures every registered component into dst, recycling the
// buffers of whatever dst previously held, so a steady-state save
// allocates nothing. It invalidates every earlier snapshot of r.
func (r *Registry) SaveInto(dst *Snapshot) {
	if cap(dst.values) < len(r.snaps) {
		dst.values = make([]any, len(r.snaps))
	}
	dst.values = dst.values[:len(r.snaps)]
	for i, s := range r.snaps {
		dst.values[i] = s.SaveInto(dst.values[i])
	}
	r.seq++
	dst.reg, dst.seq = r, r.seq
}

// Restore rewinds every registered component to s, which must be r's
// most recent save. A snapshot of another registry, one taken with a
// different component set (the engine rolled across a topology change,
// which the scheme forbids) or a stale one panics.
func (r *Registry) Restore(s Snapshot) {
	if s.reg != r {
		panic("rollback: snapshot restored into a foreign registry")
	}
	if len(s.values) != len(r.snaps) {
		panic(fmt.Sprintf("rollback: snapshot of %d components restored into %d", len(s.values), len(r.snaps)))
	}
	if s.seq != r.seq {
		panic(fmt.Sprintf("rollback: snapshot %d is stale (latest %d); only the most recent is restorable", s.seq, r.seq))
	}
	for i, c := range r.snaps {
		c.Restore(s.values[i])
	}
}
