package ip

import (
	"fmt"
	"math"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/rng"
)

// Memory pages. Storage is a sparse table of lazily-allocated 4 KB
// pages rather than a byte map: a word-aligned access never crosses a
// page, so a beat costs one table lookup plus array indexing instead of
// four map operations — the difference between the bus hot loop being
// map-bound and memory access being noise.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// memPage is one 4 KB page plus its stash mark: stamp equals the
// memory's current save sequence exactly when the page has already
// been copy-on-write stashed in the current save interval, so each
// write costs one compare and only touched pages are ever copied.
type memPage struct {
	data  [pageSize]byte
	stamp uint64
}

// Memory is a byte-addressable memory slave with a configurable,
// deterministic wait-state profile: the first beat it ever serves costs
// firstWait wait cycles, every later beat costs nextWait (see inBurst).
// With both zero it behaves as a zero-wait SRAM.
//
// Deterministic wait profiles are what makes slave responses
// "predictable" in the paper's sense: the leader-side response predictor
// runs the same producer-consumer model and stays at 100 % accuracy.
type Memory struct {
	name      string
	firstWait int
	nextWait  int

	pages map[amba.Addr]*memPage // key: addr >> pageShift
	// lastKey/lastPage cache the most recent page lookup: a burst or
	// stream stays on one page for many beats in a row, so most beats
	// skip the map. lastPage is nil when the cache is empty. A page,
	// once allocated, is never replaced or deleted (a restore copies
	// content into it), so the cache never goes stale.
	lastKey  amba.Addr
	lastPage *memPage

	waitLeft int
	// inBurst is sticky: the first completed beat sets it and nothing
	// clears it, so firstWait applies only to the first beat the memory
	// ever serves. predict.WaitModel mirrors this rule.
	inBurst bool
	reads   int64
	writes  int64

	// Page stash: instead of deep-copying the pages on every save
	// (O(footprint)), copy-on-write stash the prior content of each
	// page on its first write of a save interval and rewind on Restore
	// (O(pages touched since the save)). A save seals the interval in
	// O(1), which is why only the most recent save is restorable — the
	// leader's rollback discipline (rollback.Snapshotter).
	undo     []pageUndo
	undoFree []*memPage
	saveSeq  uint64
}

// pageUndo is one copy-on-write stash: the content a page held when
// the current save interval began.
type pageUndo struct {
	key amba.Addr // page key (addr >> pageShift)
	old *memPage
}

var _ bus.Slave = (*Memory)(nil)

// NewMemory creates a memory slave.
func NewMemory(name string, firstWait, nextWait int) *Memory {
	if firstWait < 0 || nextWait < 0 {
		panic("ip: negative wait states")
	}
	return &Memory{
		name:      name,
		firstWait: firstWait,
		nextWait:  nextWait,
		pages:     make(map[amba.Addr]*memPage),
		waitLeft:  -1,
	}
}

// NewSRAM creates a zero-wait memory.
func NewSRAM(name string) *Memory { return NewMemory(name, 0, 0) }

// Name implements bus.Slave.
func (s *Memory) Name() string { return s.name }

// Stats returns completed read and write beats.
func (s *Memory) Stats() (reads, writes int64) { return s.reads, s.writes }

// pageFor returns the page containing a, lazily allocating it when
// create is set (nil otherwise).
func (s *Memory) pageFor(a amba.Addr, create bool) *memPage {
	key := a >> pageShift
	if s.lastPage != nil && s.lastKey == key {
		return s.lastPage
	}
	p := s.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new(memPage)
		s.pages[key] = p
	}
	s.lastKey, s.lastPage = key, p
	return p
}

// Poke writes one byte directly, for test setup.
func (s *Memory) Poke(a amba.Addr, b byte) {
	p := s.pageFor(a, true)
	s.stash(a, p)
	p.data[a&pageMask] = b
}

// Peek reads one byte directly, for test inspection.
func (s *Memory) Peek(a amba.Addr) byte {
	p := s.pageFor(a, false)
	if p == nil {
		return 0
	}
	return p.data[a&pageMask]
}

// PokeWord writes a 32-bit word at a word-aligned address.
func (s *Memory) PokeWord(a amba.Addr, w amba.Word) {
	a &^= 3
	p := s.pageFor(a, true)
	s.stash(a, p)
	off := a & pageMask
	for i := 0; i < 4; i++ {
		p.data[off+amba.Addr(i)] = byte(w >> (8 * uint(i)))
	}
}

// PeekWord reads a 32-bit word at a word-aligned address.
func (s *Memory) PeekWord(a amba.Addr) amba.Word {
	a &^= 3
	p := s.pageFor(a, false)
	if p == nil {
		return 0
	}
	off := a & pageMask
	var w amba.Word
	for i := 0; i < 4; i++ {
		w |= amba.Word(p.data[off+amba.Addr(i)]) << (8 * uint(i))
	}
	return w
}

// stash copy-on-write saves page p (holding address a) into the
// current save interval's undo list unless it is already there. It is
// a no-op before the first save — writes that can never be rolled
// across must not grow an unbounded undo list.
func (s *Memory) stash(a amba.Addr, p *memPage) {
	if s.saveSeq == 0 || p.stamp == s.saveSeq {
		return
	}
	var buf *memPage
	if k := len(s.undoFree); k > 0 {
		buf = s.undoFree[k-1]
		s.undoFree = s.undoFree[:k-1]
	} else {
		buf = new(memPage)
	}
	*buf = *p
	s.undo = append(s.undo, pageUndo{key: a >> pageShift, old: buf})
	p.stamp = s.saveSeq
}

// waits returns the wait-state budget for a new beat.
func (s *Memory) waits() int {
	if s.inBurst {
		return s.nextWait
	}
	return s.firstWait
}

// Respond implements bus.Slave. The reply is a function of the slave's
// own state only (never of write data), which is what makes leader-side
// response prediction sound.
func (s *Memory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if s.waitLeft < 0 {
		s.waitLeft = s.waits()
	}
	if s.waitLeft > 0 {
		s.waitLeft--
		return amba.SlaveReply{Ready: false, Resp: amba.RespOkay}
	}
	// Beat completes this cycle.
	reply := amba.SlaveReply{Ready: true, Resp: amba.RespOkay}
	if ap.Write {
		s.writes++
	} else {
		reply.RData = ExtractLanes(s.PeekWord(ap.Addr&^3), ap.Addr, ap.Size)
		s.reads++
	}
	return reply
}

// WriteCommit implements bus.Slave: the completing write beat's data
// lands in memory at the clock edge.
func (s *Memory) WriteCommit(ap amba.AddrPhase, wdata amba.Word) {
	base := ap.Addr &^ 3
	m := laneMask(ap.Addr, ap.Size)
	p := s.pageFor(base, true)
	s.stash(base, p)
	off := base & pageMask
	for i := 0; i < 4; i++ {
		if m&(0xff<<(8*uint(i))) != 0 {
			p.data[off+amba.Addr(i)] = byte(wdata >> (8 * uint(i)))
		}
	}
}

// recycleUndo empties the undo list, returning page buffers to the
// free list.
func (s *Memory) recycleUndo() {
	for i := range s.undo {
		s.undoFree = append(s.undoFree, s.undo[i].old)
		s.undo[i].old = nil
	}
	s.undo = s.undo[:0]
}

// Commit implements bus.Slave.
func (s *Memory) Commit(ready bool) {
	if ready {
		s.waitLeft = -1
		s.inBurst = true
	}
}

// memorySnap freezes a Memory's registers; Seq pins the snapshot to
// the save interval whose page stash holds the memory content.
type memorySnap struct {
	Seq      uint64
	WaitLeft int
	InBurst  bool
	Reads    int64
	Writes   int64
}

// SaveInto implements rollback.Snapshotter. The save is O(1) — it
// seals the current copy-on-write interval — and, with a recycled
// prev, allocation-free. It invalidates every earlier save.
func (s *Memory) SaveInto(prev any) any {
	snap, ok := prev.(*memorySnap)
	if !ok {
		snap = new(memorySnap)
	}
	s.recycleUndo()
	s.saveSeq++
	*snap = memorySnap{Seq: s.saveSeq, WaitLeft: s.waitLeft, InBurst: s.inBurst, Reads: s.reads, Writes: s.writes}
	return snap
}

// Restore implements rollback.Snapshotter: it rewinds every page
// written since the save and may be repeated until the next save.
// Restoring an older save panics.
func (s *Memory) Restore(v any) {
	snap, ok := v.(*memorySnap)
	if !ok {
		panic(fmt.Sprintf("ip: memory %s: bad snapshot %T", s.name, v))
	}
	if snap.Seq != s.saveSeq {
		panic(fmt.Sprintf("ip: memory %s: restore of stale snapshot (seq %d, current %d)",
			s.name, snap.Seq, s.saveSeq))
	}
	for i := range s.undo {
		u := s.undo[i]
		// The page exists: the stash was recorded by the write that
		// dirtied it. The copy restores both the content and the
		// pre-interval stamp.
		*s.pages[u.key] = *u.old
	}
	s.recycleUndo()
	s.waitLeft = snap.WaitLeft
	s.inBurst = snap.InBurst
	s.reads = snap.Reads
	s.writes = snap.Writes
}

// JitterMemory is a memory whose per-beat wait states vary pseudo-
// randomly in [base, base+spread]. Its latency cannot be tracked by a
// static producer-consumer model, so leader-side response predictions
// genuinely miss — the component used to induce organic rollbacks.
type JitterMemory struct {
	Memory
	rng    *rng.Source
	spread int
}

// NewJitterMemory creates a jittery memory with the given base wait
// count, jitter spread and PRNG seed.
func NewJitterMemory(name string, base, spread int, seed uint64) *JitterMemory {
	if spread <= 0 {
		panic("ip: jitter spread must be positive")
	}
	j := &JitterMemory{rng: rng.New(seed), spread: spread}
	j.Memory = *NewMemory(name, base, base)
	return j
}

// Respond implements bus.Slave, rolling fresh jitter for each new beat.
func (j *JitterMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if j.waitLeft < 0 {
		j.waitLeft = j.firstWait + j.rng.Intn(j.spread+1)
	}
	return j.Memory.Respond(ap)
}

// jitterSnap composes the memory snapshot with the PRNG state.
type jitterSnap struct {
	Mem any
	Rng any
}

// SaveInto implements rollback.Snapshotter. Wrappers around
// Memory must define their own SaveInto: the embedded Memory's would
// otherwise be promoted and snapshot only the memory half.
func (j *JitterMemory) SaveInto(prev any) any {
	s, ok := prev.(*jitterSnap)
	if !ok {
		s = new(jitterSnap)
	}
	s.Mem = j.Memory.SaveInto(s.Mem)
	s.Rng = j.rng.SaveInto(s.Rng)
	return s
}

// Restore implements rollback.Snapshotter.
func (j *JitterMemory) Restore(v any) {
	s, ok := v.(*jitterSnap)
	if !ok {
		panic(fmt.Sprintf("ip: jitter memory: bad snapshot %T", v))
	}
	j.Memory.Restore(s.Mem)
	j.rng.Restore(s.Rng)
}

// ErrorSlave responds to every active beat with a two-cycle ERROR, the
// behavior of the AHB default slave, packaged as a mappable component.
type ErrorSlave struct {
	name   string
	second bool
	errors int64
}

var _ bus.Slave = (*ErrorSlave)(nil)

// NewErrorSlave creates an always-erroring slave.
func NewErrorSlave(name string) *ErrorSlave { return &ErrorSlave{name: name} }

// Name implements bus.Slave.
func (e *ErrorSlave) Name() string { return e.name }

// Errors returns the number of ERROR responses issued (counted once per
// two-cycle response).
func (e *ErrorSlave) Errors() int64 { return e.errors }

// Respond implements bus.Slave.
func (e *ErrorSlave) Respond(amba.AddrPhase) amba.SlaveReply {
	if e.second {
		return amba.SlaveReply{Ready: true, Resp: amba.RespError}
	}
	e.errors++
	return amba.SlaveReply{Ready: false, Resp: amba.RespError}
}

// WriteCommit implements bus.Slave; erroring beats never commit data.
func (e *ErrorSlave) WriteCommit(amba.AddrPhase, amba.Word) {}

// Commit implements bus.Slave.
func (e *ErrorSlave) Commit(ready bool) { e.second = !ready }

// errorSnap freezes an ErrorSlave.
type errorSnap struct {
	Second bool
	Errors int64
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of an error slave.
func (e *ErrorSlave) SaveInto(prev any) any {
	s, ok := prev.(*errorSnap)
	if !ok {
		s = new(errorSnap)
	}
	*s = errorSnap{Second: e.second, Errors: e.errors}
	return s
}

// Restore implements rollback.Snapshotter.
func (e *ErrorSlave) Restore(v any) {
	s, ok := v.(*errorSnap)
	if !ok {
		panic(fmt.Sprintf("ip: error slave: bad snapshot %T", v))
	}
	e.second = s.Second
	e.errors = s.Errors
}

// RetryMemory wraps a Memory and issues a two-cycle RETRY for the first
// attempt of every retryEvery-th beat, forcing masters through the
// retry/reissue path.
type RetryMemory struct {
	Memory
	retryEvery int
	beatCount  int64
	retryPhase int // 0 none, 1 first RETRY cycle issued
	retryDone  bool
	retries    int64
}

var _ bus.Slave = (*RetryMemory)(nil)

// NewRetryMemory creates a retrying memory; retryEvery must be >= 1.
func NewRetryMemory(name string, waits, retryEvery int) *RetryMemory {
	if retryEvery < 1 {
		panic("ip: retryEvery must be >= 1")
	}
	r := &RetryMemory{retryEvery: retryEvery}
	r.Memory = *NewMemory(name, waits, waits)
	return r
}

// Retries returns how many RETRY sequences were issued.
func (r *RetryMemory) Retries() int64 { return r.retries }

// Respond implements bus.Slave.
func (r *RetryMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if r.retryPhase == 1 {
		return amba.SlaveReply{Ready: true, Resp: amba.RespRetry}
	}
	if !r.retryDone && (r.beatCount+1)%int64(r.retryEvery) == 0 {
		r.retries++
		r.retryPhase = 1
		return amba.SlaveReply{Ready: false, Resp: amba.RespRetry}
	}
	return r.Memory.Respond(ap)
}

// Commit implements bus.Slave.
func (r *RetryMemory) Commit(ready bool) {
	if r.retryPhase == 1 {
		if ready {
			// RETRY sequence finished; the retried beat will come back
			// and must then be accepted.
			r.retryPhase = 0
			r.retryDone = true
		}
		return
	}
	if ready {
		r.beatCount++
		r.retryDone = false
	}
	r.Memory.Commit(ready)
}

// SplitMemory is a memory that answers every splitEvery-th beat with a
// two-cycle SPLIT response, releasing the split-masked master via its
// HSPLITx line releaseAfter cycles later — modeling a slave that parks
// long-latency requests and frees the bus meanwhile (AHB §3.12).
type SplitMemory struct {
	Memory
	splitEvery   int
	releaseAfter int

	beatCount     int64
	phase         int // 0 none, 1 first SPLIT cycle issued
	splitDone     bool
	pendingMaster int
	countdown     int // -1 idle
	release       uint32
	splits        int64
}

var (
	_ bus.Slave         = (*SplitMemory)(nil)
	_ bus.SplitSource   = (*SplitMemory)(nil)
	_ bus.SplitNotifiee = (*SplitMemory)(nil)
)

// NewSplitMemory creates a splitting memory; splitEvery >= 1,
// releaseAfter >= 0 (0 releases on the very next cycle).
func NewSplitMemory(name string, waits, splitEvery, releaseAfter int) *SplitMemory {
	if splitEvery < 1 {
		panic("ip: splitEvery must be >= 1")
	}
	if releaseAfter < 0 {
		panic("ip: negative releaseAfter")
	}
	s := &SplitMemory{splitEvery: splitEvery, releaseAfter: releaseAfter, countdown: -1}
	s.Memory = *NewMemory(name, waits, waits)
	return s
}

// Splits returns how many SPLIT responses were issued.
func (s *SplitMemory) Splits() int64 { return s.splits }

// Respond implements bus.Slave.
func (s *SplitMemory) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if s.phase == 1 {
		return amba.SlaveReply{Ready: true, Resp: amba.RespSplit}
	}
	if !s.splitDone && (s.beatCount+1)%int64(s.splitEvery) == 0 {
		s.splits++
		s.phase = 1
		return amba.SlaveReply{Ready: false, Resp: amba.RespSplit}
	}
	return s.Memory.Respond(ap)
}

// Commit implements bus.Slave.
func (s *SplitMemory) Commit(ready bool) {
	if s.phase == 1 {
		if ready {
			s.phase = 0
			s.splitDone = true
		}
		return
	}
	if ready {
		s.beatCount++
		s.splitDone = false
	}
	s.Memory.Commit(ready)
}

// NotifySplit implements bus.SplitNotifiee: remember whom to release.
func (s *SplitMemory) NotifySplit(master int) {
	s.pendingMaster = master
	s.countdown = s.releaseAfter
}

// Tick implements sim.Clocked: the release countdown runs on the target
// clock regardless of bus activity.
func (s *SplitMemory) Tick(int64) {
	switch {
	case s.countdown < 0:
	case s.countdown == 0:
		s.release |= 1 << uint(s.pendingMaster)
		s.countdown = -1
	default:
		s.countdown--
	}
}

// QuiescentFor implements sim.Quiescible: a pending (raised but not
// yet consumed) release line blocks batching outright; an armed
// countdown of c permits c pure decrements before the tick that
// raises the HSPLITx line; an idle countdown never acts.
func (s *SplitMemory) QuiescentFor() int64 {
	if s.release != 0 {
		return 0
	}
	if s.countdown < 0 {
		return math.MaxInt64
	}
	return int64(s.countdown)
}

// SkipQuiescent implements sim.Quiescible: n ticks collapse to one
// countdown subtraction. Callers keep n <= QuiescentFor().
func (s *SplitMemory) SkipQuiescent(n int64) {
	if s.countdown >= 0 {
		s.countdown -= int(n)
	}
}

// SplitRelease implements bus.SplitSource: raised lines are consumed by
// the one bus Evaluate of the cycle.
func (s *SplitMemory) SplitRelease() uint32 {
	r := s.release
	s.release = 0
	return r
}

// splitSnap composes the memory snapshot with split bookkeeping.
type splitSnap struct {
	Mem           any
	BeatCount     int64
	Phase         int
	SplitDone     bool
	PendingMaster int
	Countdown     int
	Release       uint32
	Splits        int64
}

// SaveInto implements rollback.Snapshotter (wrappers must
// override the embedded Memory's SaveInto; see JitterMemory.SaveInto).
func (s *SplitMemory) SaveInto(prev any) any {
	snap, ok := prev.(*splitSnap)
	if !ok {
		snap = new(splitSnap)
	}
	snap.Mem = s.Memory.SaveInto(snap.Mem)
	snap.BeatCount = s.beatCount
	snap.Phase = s.phase
	snap.SplitDone = s.splitDone
	snap.PendingMaster = s.pendingMaster
	snap.Countdown = s.countdown
	snap.Release = s.release
	snap.Splits = s.splits
	return snap
}

// Restore implements rollback.Snapshotter.
func (s *SplitMemory) Restore(v any) {
	snap, ok := v.(*splitSnap)
	if !ok {
		panic(fmt.Sprintf("ip: split memory: bad snapshot %T", v))
	}
	s.Memory.Restore(snap.Mem)
	s.beatCount = snap.BeatCount
	s.phase = snap.Phase
	s.splitDone = snap.SplitDone
	s.pendingMaster = snap.PendingMaster
	s.countdown = snap.Countdown
	s.release = snap.Release
	s.splits = snap.Splits
}

// retrySnap composes the memory snapshot with retry bookkeeping.
type retrySnap struct {
	Mem        any
	BeatCount  int64
	RetryPhase int
	RetryDone  bool
	Retries    int64
}

// SaveInto implements rollback.Snapshotter (wrappers must
// override the embedded Memory's SaveInto; see JitterMemory.SaveInto).
func (r *RetryMemory) SaveInto(prev any) any {
	s, ok := prev.(*retrySnap)
	if !ok {
		s = new(retrySnap)
	}
	s.Mem = r.Memory.SaveInto(s.Mem)
	s.BeatCount = r.beatCount
	s.RetryPhase = r.retryPhase
	s.RetryDone = r.retryDone
	s.Retries = r.retries
	return s
}

// Restore implements rollback.Snapshotter.
func (r *RetryMemory) Restore(v any) {
	s, ok := v.(*retrySnap)
	if !ok {
		panic(fmt.Sprintf("ip: retry memory: bad snapshot %T", v))
	}
	r.Memory.Restore(s.Mem)
	r.beatCount = s.BeatCount
	r.retryPhase = s.RetryPhase
	r.retryDone = s.RetryDone
	r.retries = s.Retries
}
