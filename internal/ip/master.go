package ip

import (
	"fmt"
	"math"

	"coemu/internal/amba"
	"coemu/internal/bus"
)

// Xfer describes one bus transaction a generator asks a master to issue.
type Xfer struct {
	Addr  amba.Addr
	Write bool
	Size  amba.Size
	Burst amba.Burst
	// Len is the beat count for BurstIncr; fixed-length bursts derive
	// their beat count from the burst type.
	Len int
	// Data holds one value per beat for writes, given in the low bits
	// (the master places them onto the correct byte lanes).
	Data []amba.Word
	// Gap is the number of idle cycles the master waits before
	// requesting the bus for this transfer.
	Gap int
}

// Beats returns the number of beats the transfer will issue.
func (x Xfer) Beats() int {
	if b := x.Burst.Beats(); b > 0 {
		return b
	}
	if x.Len > 0 {
		return x.Len
	}
	return 1
}

// Generator supplies a master with its transfer stream. Implementations
// must be deterministic; when they carry state (counters, PRNGs) they
// must also implement rollback.Snapshotter — SaveInto(prev any) any and
// Restore(any) — so a leader domain can replay them. A generator that
// has only the former Save method is not registered, so a rollback
// would replay it from the wrong state.
type Generator interface {
	// Next returns the next transfer, or ok=false when the stream ends.
	Next() (x Xfer, ok bool)
}

// masterState is everything a TrafficMaster must roll back.
type masterState struct {
	Seq       Sequencer   // the transfer's beat sequence
	Data      []amba.Word // the transfer's write data (nil for a read)
	Gap       int
	Granted   bool // owns the address phase in the upcoming cycle
	LastReady bool
	LastAP    amba.AddrPhase
	DataValid bool // the beat accepted last is in its data phase
	Cancel    bool
	Masked    bool // split-masked: present IDLE until HSPLITx releases us
	Done      bool // generator exhausted
	Retries   int64
	Errors    int64
	BeatsDone int64
}

// TrafficMaster is the AHB bus master used for every workload in the
// reproduction. It is a full pin-level state machine: bursts, wait-state
// holds, BUSY insertion, two-cycle RETRY/ERROR handling with beat
// re-issue, and burst restart after losing the bus mid-burst. What the
// protocol fixes about its address phases comes from its Sequencer;
// what no protocol rule fixes (the generator's next transfer, the gap
// before it, the write data) is its own.
//
// A TrafficMaster placed in the simulation domain plays the role of a
// transaction-level master; placed in the acceleration domain it plays
// an RTL block. The cycle behavior is identical by construction — which
// is exactly the property micro-architectural TLM promises (§1.1).
type TrafficMaster struct {
	name string
	gen  Generator

	st masterState
}

var _ bus.Master = (*TrafficMaster)(nil)

// NewTrafficMaster creates a master fed by gen. busyEvery > 0 makes the
// master insert one BUSY cycle before every busyEvery-th beat of a
// burst, exercising the BUSY protocol path; 0 disables it.
func NewTrafficMaster(name string, gen Generator, busyEvery int) *TrafficMaster {
	if gen == nil {
		panic("ip: nil generator")
	}
	m := &TrafficMaster{name: name, gen: gen}
	m.st.Seq = Sequencer{busyEvery: busyEvery}
	m.st.LastReady = true
	m.fetch()
	return m
}

// Name implements bus.Master.
func (m *TrafficMaster) Name() string { return m.name }

// Stats returns beats completed, retries absorbed and error responses.
func (m *TrafficMaster) Stats() (beats, retries, errors int64) {
	return m.st.BeatsDone, m.st.Retries, m.st.Errors
}

// Idle reports whether the master has no transfer in flight and no more
// traffic to issue.
func (m *TrafficMaster) Idle() bool {
	return !m.st.Seq.Loaded() && m.st.Done && !m.st.DataValid
}

// QuiescentCycles reports for how many upcoming cycles the master is
// guaranteed to contribute nothing to the bus: no request, an IDLE
// address phase, no beat in either pipeline phase. The bound is exact
// ground truth (the generator has already handed over the next
// transfer, so the remaining inter-transfer gap is known), which is
// what lets the engine's predicted-quiescence batching skip the
// master's Drive/Commit rounds without changing behavior. A master
// that may act on the very next cycle returns 0.
func (m *TrafficMaster) QuiescentCycles() int64 {
	if m.st.DataValid || m.st.Cancel || !m.st.LastReady || m.st.Masked {
		return 0
	}
	if !m.st.Seq.Loaded() {
		if m.st.Done {
			return math.MaxInt64 // stream exhausted: idle forever
		}
		return 0
	}
	return int64(m.st.Gap) // requests the bus the cycle the gap expires
}

// SkipIdle advances the master across n quiescent cycles in one step.
// The resulting state is bit-identical to n Drive/Commit rounds on an
// idle ready bus: the gap countdown drops by n and the recorded
// address phase is the IDLE one Drive would have driven. Callers must
// keep n <= QuiescentCycles().
func (m *TrafficMaster) SkipIdle(n int64) {
	m.st.LastAP = amba.AddrPhase{}
	if m.st.Seq.Loaded() && m.st.Gap > 0 {
		m.st.Gap -= int(n)
	}
}

// fetch loads the generator's next transfer, or marks the stream done.
func (m *TrafficMaster) fetch() {
	x, ok := m.gen.Next()
	if !ok {
		m.st.Seq.Drop()
		m.st.Done = true
		return
	}
	m.st.Seq.load(amba.AddrPhase{Addr: x.Addr, Write: x.Write, Size: x.Size, Burst: x.Burst, Prot: amba.ProtData}, x.Beats())
	m.st.Data = nil
	if x.Write {
		m.st.Data = x.Data
	}
	m.st.Gap = x.Gap
}

// Drive implements bus.Master, writing every field of the bus's drive
// slot d.
func (m *TrafficMaster) Drive(d *bus.MasterDrive) {
	d.Req = m.st.Gap == 0 && m.st.Seq.left()
	d.WData = 0
	if i, ap := m.st.Seq.last(); m.st.DataValid && i < len(m.st.Data) {
		// The write data of the beat in its data phase, on its lanes.
		d.WData = ExtractLanes(m.st.Data[i]<<laneShift(ap.Addr, ap.Size), ap.Addr, ap.Size)
	}

	switch {
	case m.st.Cancel:
		// First cycle of RETRY/ERROR/SPLIT seen last cycle: drive IDLE.
		d.AP = amba.AddrPhase{}
	case !m.st.LastReady:
		// Wait state: hold the address phase.
		d.AP = m.st.LastAP
	case m.st.Masked:
		// Split-masked: keep requesting but present no beats until the
		// slave raises our HSPLITx line.
		d.AP = amba.AddrPhase{}
	case m.st.Granted && d.Req:
		d.AP = m.st.Seq.next()
	default:
		d.AP = amba.AddrPhase{}
	}
	m.st.LastAP = d.AP
}

// Commit implements bus.Master.
func (m *TrafficMaster) Commit(fb bus.MasterFeedback) {
	if m.st.Seq.Loaded() && m.st.Gap > 0 {
		m.st.Gap--
	}

	if !fb.Ready {
		// Wait state, or first cycle of a two-cycle response: remember
		// that the next address phase must be IDLE.
		if fb.OwnsData && fb.Resp != amba.RespOkay {
			m.st.Cancel = true
		}
		m.st.LastReady = false
		m.st.Granted = fb.GrantNext
		m.st.Masked = fb.SplitMasked
		return
	}

	// The clock edge with HREADY high: phases advance. The beat in the
	// data phase is the transfer's final one when no beats are left
	// before this edge's address phase is accepted.
	completed, final := m.st.DataValid, !m.st.Seq.left()
	m.st.DataValid = false
	if fb.Granted {
		m.st.Seq.accept(m.st.LastAP.Trans)
		m.st.DataValid = m.st.LastAP.Trans.Active()
	}

	if fb.OwnsData && completed {
		switch fb.Resp {
		case amba.RespOkay:
			m.st.BeatsDone++
			if final {
				m.finish()
			}
		case amba.RespError:
			m.st.Errors++
			m.finish()
		case amba.RespRetry, amba.RespSplit:
			// The failed beat must be reissued; the remainder of the
			// burst restarts as INCR.
			m.st.Retries++
			m.st.Seq.reissue()
			m.st.DataValid = false
		}
	}

	m.st.Cancel = false
	m.st.LastReady = true
	m.st.Granted = fb.GrantNext
	m.st.Masked = fb.SplitMasked

	if !fb.GrantNext {
		// Lost the bus mid-burst: restart the remainder when regranted.
		m.st.Seq.cut()
	}
}

// finish retires the current transfer and loads the next.
func (m *TrafficMaster) finish() {
	m.st.DataValid = false
	m.fetch()
}

// masterSnap freezes a TrafficMaster. masterState is fully value-typed
// apart from Data, which generators never mutate after handing the
// transfer out, so a struct copy is a deep copy.
type masterSnap struct {
	St masterState
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a master.
func (m *TrafficMaster) SaveInto(prev any) any {
	s, ok := prev.(*masterSnap)
	if !ok {
		s = new(masterSnap)
	}
	s.St = m.st
	return s
}

// Restore implements rollback.Snapshotter.
func (m *TrafficMaster) Restore(v any) {
	s, ok := v.(*masterSnap)
	if !ok {
		panic(fmt.Sprintf("ip: master %s: bad snapshot %T", m.name, v))
	}
	m.st = s.St
}
