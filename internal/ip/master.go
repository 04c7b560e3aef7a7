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

// activeXfer is the in-flight transfer with its issue bookkeeping. Beat
// addresses are derived on demand so the state is fully value-typed:
// snapshots are plain struct copies with nothing to alias.
type activeXfer struct {
	Valid     bool
	X         Xfer
	Beats     int
	Issue     int  // next beat index to present on the address phase
	Restarted bool // remainder reissued as INCR after retry/grant loss
	BusyFor   int  // beat index a BUSY was already inserted for (-1 none)

	// Memoized beat-address cursor: the addresses of beats MemoIdx and
	// MemoIdx-1. The per-cycle callers (issue at Issue, data phase at
	// Issue-1) advance monotonically, so addr stays O(1) amortized per
	// beat without materializing the burst's address sequence. Purely a
	// cache of X — value-copied snapshots stay consistent.
	MemoIdx  int
	MemoAddr amba.Addr
	MemoPrev amba.Addr
}

// addr returns the address of beat i, following the original burst's
// address sequence (wrap points included) even after an INCR restart.
func (a *activeXfer) addr(i int) amba.Addr {
	switch {
	case i == a.MemoIdx:
		return a.MemoAddr
	case i == a.MemoIdx-1 && i >= 0:
		return a.MemoPrev
	case i == a.MemoIdx+1:
		a.MemoPrev = a.MemoAddr
		a.MemoAddr = amba.NextAddr(a.MemoAddr, a.X.Size, a.X.Burst)
		a.MemoIdx = i
		return a.MemoAddr
	}
	// Rare (beat reissue after retry or restart): rebuild the cursor by
	// walking from the burst start.
	a.MemoIdx, a.MemoAddr, a.MemoPrev = 0, a.X.Addr, a.X.Addr
	for a.MemoIdx < i {
		a.MemoPrev = a.MemoAddr
		a.MemoAddr = amba.NextAddr(a.MemoAddr, a.X.Size, a.X.Burst)
		a.MemoIdx++
	}
	return a.MemoAddr
}

// masterState is everything a TrafficMaster must roll back.
type masterState struct {
	Cur       activeXfer
	Gap       int
	Granted   bool // owns the address phase in the upcoming cycle
	LastReady bool
	LastAP    amba.AddrPhase
	DataBeat  int // beat index currently in data phase (-1 none)
	Cancel    bool
	Masked    bool // split-masked: present IDLE until HSPLITx releases us
	NeedNS    bool // next issued beat must be NONSEQ
	Done      bool // generator exhausted
	Retries   int64
	Errors    int64
	BeatsDone int64
}

// TrafficMaster is the AHB bus master used for every workload in the
// reproduction. It is a full pin-level state machine: bursts, wait-state
// holds, BUSY insertion, two-cycle RETRY/ERROR handling with beat
// re-issue, and burst restart after losing the bus mid-burst.
//
// A TrafficMaster placed in the simulation domain plays the role of a
// transaction-level master; placed in the acceleration domain it plays
// an RTL block. The cycle behavior is identical by construction — which
// is exactly the property micro-architectural TLM promises (§1.1).
type TrafficMaster struct {
	name      string
	gen       Generator
	busyEvery int

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
	m := &TrafficMaster{name: name, gen: gen, busyEvery: busyEvery}
	m.st.DataBeat = -1
	m.st.Cur.BusyFor = -1
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
	return !m.st.Cur.Valid && m.st.Done && m.st.DataBeat < 0
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
	if m.st.DataBeat >= 0 || m.st.Cancel || !m.st.LastReady || m.st.Masked {
		return 0
	}
	if !m.st.Cur.Valid {
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
	if m.st.Cur.Valid && m.st.Gap > 0 {
		m.st.Gap -= int(n)
	}
}

// fetch pulls the next transfer from the generator.
func (m *TrafficMaster) fetch() {
	if m.st.Done || m.st.Cur.Valid {
		return
	}
	x, ok := m.gen.Next()
	if !ok {
		m.st.Done = true
		return
	}
	beats := x.Beats()
	m.st.Cur = activeXfer{Valid: true, X: x, Beats: beats, BusyFor: -1,
		MemoAddr: x.Addr, MemoPrev: x.Addr}
	m.st.Gap = x.Gap
	m.st.NeedNS = true
}

// beatWData returns the lane-placed write data of beat i.
func (m *TrafficMaster) beatWData(i int) amba.Word {
	x := m.st.Cur.X
	var raw amba.Word
	if i < len(x.Data) {
		raw = x.Data[i]
	}
	a := m.st.Cur.addr(i)
	return ExtractLanes(raw<<laneShift(a, x.Size), a, x.Size)
}

// Drive implements bus.Master, writing every field of the bus's drive
// slot d.
func (m *TrafficMaster) Drive(d *bus.MasterDrive) {
	cur := &m.st.Cur

	d.Req = cur.Valid && m.st.Gap == 0 && cur.Issue < cur.Beats
	d.WData = 0
	if m.st.DataBeat >= 0 && cur.Valid && cur.X.Write {
		d.WData = m.beatWData(m.st.DataBeat)
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
		d.AP = m.buildAP()
	default:
		d.AP = amba.AddrPhase{}
	}
	m.st.LastAP = d.AP
}

// buildAP constructs the address phase for the next beat, inserting BUSY
// cycles per configuration and choosing NONSEQ/SEQ per burst progress.
func (m *TrafficMaster) buildAP() amba.AddrPhase {
	cur := &m.st.Cur
	i := cur.Issue
	burst := cur.X.Burst
	if cur.Restarted {
		burst = amba.BurstIncr
	}
	ap := amba.AddrPhase{
		Addr:  cur.addr(i),
		Write: cur.X.Write,
		Size:  cur.X.Size,
		Burst: burst,
		Prot:  amba.ProtData,
	}
	needNS := m.st.NeedNS
	if !needNS && cur.Restarted && cur.addr(i) != cur.addr(i-1)+amba.Addr(cur.X.Size.Bytes()) {
		// Discontinuity in the reissued INCR remainder (a wrap point of
		// the original burst): a fresh NONSEQ is required.
		needNS = true
	}
	if needNS {
		ap.Trans = amba.TransNonSeq
		return ap
	}
	if m.busyEvery > 0 && i%m.busyEvery == 0 && cur.BusyFor != i {
		ap.Trans = amba.TransBusy
		return ap
	}
	ap.Trans = amba.TransSeq
	return ap
}

// Commit implements bus.Master.
func (m *TrafficMaster) Commit(fb bus.MasterFeedback) {
	cur := &m.st.Cur

	if cur.Valid && m.st.Gap > 0 {
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

	// The clock edge with HREADY high: phases advance.
	issuedActive := fb.Granted && m.st.LastAP.Trans.Active()
	issuedBusy := fb.Granted && m.st.LastAP.Trans == amba.TransBusy
	completed := m.st.DataBeat
	newData := -1

	if issuedActive && cur.Valid {
		newData = cur.Issue
		cur.Issue++
		m.st.NeedNS = false
	}
	if issuedBusy && cur.Valid {
		cur.BusyFor = cur.Issue
	}

	if fb.OwnsData && completed >= 0 && cur.Valid {
		switch fb.Resp {
		case amba.RespOkay:
			m.st.BeatsDone++
			if completed == cur.Beats-1 {
				m.finish()
				newData = -1
			}
		case amba.RespError:
			m.st.Errors++
			m.finish()
			newData = -1
		case amba.RespRetry, amba.RespSplit:
			// The failed beat must be reissued; the remainder of the
			// burst restarts as INCR.
			m.st.Retries++
			cur.Issue = completed
			cur.Restarted = true
			m.st.NeedNS = true
			newData = -1
		}
	}

	m.st.DataBeat = newData
	m.st.Cancel = false
	m.st.LastReady = true
	m.st.Granted = fb.GrantNext
	m.st.Masked = fb.SplitMasked

	if cur.Valid && cur.Issue < cur.Beats && !fb.GrantNext && cur.Issue > 0 {
		// Lost the bus mid-burst: restart the remainder when regranted.
		cur.Restarted = true
		m.st.NeedNS = true
	}
}

// finish retires the current transfer and prefetches the next.
func (m *TrafficMaster) finish() {
	m.st.Cur = activeXfer{BusyFor: -1}
	m.fetch()
}

// masterSnap freezes a TrafficMaster. masterState is fully value-typed
// apart from Xfer.Data, which generators never mutate after handing the
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
