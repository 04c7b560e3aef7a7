// Package workload provides deterministic traffic generators that feed
// ip.TrafficMaster instances: pre-scripted sequences, streaming bursts
// (the highly predictable traffic the paper's scheme thrives on),
// DMA-style copy loops, and CPU-like randomized access patterns (the
// traffic that stresses arbitration prediction).
//
// Every generator is snapshotable so it can live inside a leader domain.
package workload

import (
	"fmt"

	"coemu/internal/amba"
	"coemu/internal/ip"
	"coemu/internal/rng"
)

// Window is a half-open address window [Lo, Hi) a generator draws
// addresses from.
type Window struct {
	Lo, Hi amba.Addr
}

// Span returns the window size in bytes.
func (w Window) Span() amba.Addr { return w.Hi - w.Lo }

// pattern produces the deterministic data word for beat counter n.
func pattern(n uint64) amba.Word {
	x := n*0x9E3779B97F4A7C15 + 0x7F4A7C15
	return amba.Word(x>>32) ^ amba.Word(x)
}

// dataPool recycles the per-burst Data slices a write generator hands
// to its master, removing the last generator-owned allocation from the
// engine's steady-state loop while staying rollback-safe.
//
// Safety argument. A slice issued for transfer q is referenced by (at
// most) the master's current activeXfer — the master drops transfer q
// the moment it fetches q+1 — and by the domain's single live rollback
// snapshot, which holds a value copy of the master state as of the last
// Save (referencing transfer snapSeq-1 at the oldest). So any slice
// whose transfer index is holdDepth fetches below BOTH the current
// issue counter and the last save point is unreachable and free to
// recycle. A Restore rewinds the issue counter to the save point;
// slices issued after it became unreachable with the rolled-back
// master state (the registry restores the whole domain atomically
// between cycles) and return to the free list — the roll-forth replay
// regenerates their transfers, with bit-identical contents since the
// data is a pure function of the snapshotted beat counter.
type dataPool struct {
	free [][]amba.Word
	out  []pooledBuf // outstanding slices, oldest first
	// snapSeq is the generator's issue counter at the last Save;
	// hasSnap marks that a restorable snapshot exists. The zero value
	// is a ready-to-use pool with no snapshot.
	snapSeq int64
	hasSnap bool
}

// pooledBuf is one outstanding slice tagged with its transfer index.
type pooledBuf struct {
	seq int64
	buf []amba.Word
}

// holdDepth is how many fetches below the low-water mark a slice must
// be before recycling. 1 suffices (only the most recent fetch is live);
// 2 leaves a margin.
const holdDepth = 2

// get returns a slice of n words for the transfer with issue index seq,
// recycling retired buffers. The contents are unspecified; the caller
// overwrites every word.
func (p *dataPool) get(seq int64, n int) []amba.Word {
	p.reclaim(seq)
	var buf []amba.Word
	if k := len(p.free); k > 0 {
		buf = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	if cap(buf) < n {
		buf = make([]amba.Word, n)
	}
	buf = buf[:n]
	p.out = append(p.out, pooledBuf{seq: seq, buf: buf})
	return buf
}

// reclaim moves every provably-unreachable outstanding slice to the
// free list. cur is the generator's current issue counter.
func (p *dataPool) reclaim(cur int64) {
	low := cur
	if p.hasSnap && p.snapSeq < low {
		low = p.snapSeq
	}
	n := 0
	for n < len(p.out) && p.out[n].seq < low-holdDepth {
		p.free = append(p.free, p.out[n].buf)
		p.out[n].buf = nil
		n++
	}
	if n > 0 {
		rest := copy(p.out, p.out[n:])
		for i := rest; i < len(p.out); i++ {
			p.out[i] = pooledBuf{}
		}
		p.out = p.out[:rest]
	}
}

// saved records a snapshot at issue counter cur: slices at or above
// cur-holdDepth stay pinned until the next save supersedes it.
func (p *dataPool) saved(cur int64) { p.snapSeq, p.hasSnap = cur, true }

// restored rewinds to issue counter cur (the last save point): slices
// issued at or after cur belong to rolled-back transfers and recycle
// immediately.
func (p *dataPool) restored(cur int64) {
	p.snapSeq = cur
	for len(p.out) > 0 {
		last := len(p.out) - 1
		if p.out[last].seq < cur {
			break
		}
		p.free = append(p.free, p.out[last].buf)
		p.out[last] = pooledBuf{}
		p.out = p.out[:last]
	}
}

// Sequence replays a fixed list of transfers, for tests and examples.
type Sequence struct {
	xfers []ip.Xfer
	i     int
}

var _ ip.Generator = (*Sequence)(nil)

// NewSequence creates a generator that emits the given transfers in
// order, then ends.
func NewSequence(xfers ...ip.Xfer) *Sequence { return &Sequence{xfers: xfers} }

// Next implements ip.Generator.
func (s *Sequence) Next() (ip.Xfer, bool) {
	if s.i >= len(s.xfers) {
		return ip.Xfer{}, false
	}
	x := s.xfers[s.i]
	s.i++
	return x, true
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a sequence.
func (s *Sequence) SaveInto(prev any) any {
	i, ok := prev.(*int)
	if !ok {
		i = new(int)
	}
	*i = s.i
	return i
}

// Restore implements rollback.Snapshotter.
func (s *Sequence) Restore(v any) {
	i, ok := v.(*int)
	if !ok {
		panic(fmt.Sprintf("workload: sequence: bad snapshot %T", v))
	}
	s.i = *i
}

// Stream emits an endless (or bounded) run of same-direction bursts
// marching through an address window — the unidirectional, linearly
// addressed traffic for which the paper's address/control prediction is
// exact. A write stream makes the master's domain the natural leader; a
// read stream makes the slave's domain the leader.
type Stream struct {
	win   Window
	write bool
	burst amba.Burst
	size  amba.Size
	len   int // beats for INCR
	gap   int
	max   int64 // 0 = unbounded

	st   streamState
	pool dataPool
}

type streamState struct {
	Cursor amba.Addr
	Beat   uint64
	Issued int64
}

var _ ip.Generator = (*Stream)(nil)

// NewStream creates a streaming generator. max bounds the number of
// transfers (0 = unbounded). gap inserts idle cycles between transfers.
func NewStream(win Window, write bool, burst amba.Burst, size amba.Size, incrLen, gap int, max int64) *Stream {
	if win.Span() == 0 {
		panic("workload: empty stream window")
	}
	return &Stream{
		win: win, write: write, burst: burst, size: size, len: incrLen, gap: gap, max: max,
		st: streamState{Cursor: win.Lo},
	}
}

// Next implements ip.Generator.
func (s *Stream) Next() (ip.Xfer, bool) {
	if s.max > 0 && s.st.Issued >= s.max {
		return ip.Xfer{}, false
	}
	x := ip.Xfer{
		Addr:  s.st.Cursor,
		Write: s.write,
		Size:  s.size,
		Burst: s.burst,
		Len:   s.len,
		Gap:   s.gap,
	}
	beats := x.Beats()
	if s.write {
		x.Data = s.pool.get(s.st.Issued, beats)
		for i := range x.Data {
			x.Data[i] = pattern(s.st.Beat + uint64(i))
		}
	}
	s.st.Beat += uint64(beats)
	span := amba.Addr(beats * s.size.Bytes())
	s.st.Cursor += span
	if s.st.Cursor+span > s.win.Hi {
		s.st.Cursor = s.win.Lo
	}
	s.st.Issued++
	return x, true
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a stream.
func (s *Stream) SaveInto(prev any) any {
	st, ok := prev.(*streamState)
	if !ok {
		st = new(streamState)
	}
	*st = s.st
	s.pool.saved(s.st.Issued)
	return st
}

// Restore implements rollback.Snapshotter.
func (s *Stream) Restore(v any) {
	st, ok := v.(*streamState)
	if !ok {
		panic(fmt.Sprintf("workload: stream: bad snapshot %T", v))
	}
	s.st = *st
	s.pool.restored(s.st.Issued)
}

// DMACopy alternates read bursts from a source window with write bursts
// of the same data... of a deterministic pattern into a destination
// window, modeling a DMA engine moving a frame between memories.
type DMACopy struct {
	src, dst Window
	burst    amba.Burst
	gap      int
	max      int64

	st   dmaState
	pool dataPool
}

type dmaState struct {
	SrcCur  amba.Addr
	DstCur  amba.Addr
	Beat    uint64
	Issued  int64
	WriteNx bool
}

var _ ip.Generator = (*DMACopy)(nil)

// NewDMACopy creates a DMA copy generator issuing bursts of the given
// type, alternating read-from-src and write-to-dst.
func NewDMACopy(src, dst Window, burst amba.Burst, gap int, max int64) *DMACopy {
	if burst.Beats() == 0 {
		panic("workload: DMA requires a fixed-length burst")
	}
	return &DMACopy{src: src, dst: dst, burst: burst, gap: gap, max: max,
		st: dmaState{SrcCur: src.Lo, DstCur: dst.Lo}}
}

// Next implements ip.Generator.
func (d *DMACopy) Next() (ip.Xfer, bool) {
	if d.max > 0 && d.st.Issued >= d.max {
		return ip.Xfer{}, false
	}
	beats := d.burst.Beats()
	span := amba.Addr(beats * 4)
	var x ip.Xfer
	if d.st.WriteNx {
		x = ip.Xfer{Addr: d.st.DstCur, Write: true, Size: amba.Size32, Burst: d.burst, Gap: d.gap}
		x.Data = d.pool.get(d.st.Issued, beats)
		for i := range x.Data {
			x.Data[i] = pattern(d.st.Beat + uint64(i))
		}
		d.st.Beat += uint64(beats)
		d.st.DstCur += span
		if d.st.DstCur+span > d.dst.Hi {
			d.st.DstCur = d.dst.Lo
		}
	} else {
		x = ip.Xfer{Addr: d.st.SrcCur, Write: false, Size: amba.Size32, Burst: d.burst, Gap: d.gap}
		d.st.SrcCur += span
		if d.st.SrcCur+span > d.src.Hi {
			d.st.SrcCur = d.src.Lo
		}
	}
	d.st.WriteNx = !d.st.WriteNx
	d.st.Issued++
	return x, true
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a DMA generator.
func (d *DMACopy) SaveInto(prev any) any {
	st, ok := prev.(*dmaState)
	if !ok {
		st = new(dmaState)
	}
	*st = d.st
	d.pool.saved(d.st.Issued)
	return st
}

// Restore implements rollback.Snapshotter.
func (d *DMACopy) Restore(v any) {
	st, ok := v.(*dmaState)
	if !ok {
		panic(fmt.Sprintf("workload: dma: bad snapshot %T", v))
	}
	d.st = *st
	d.pool.restored(d.st.Issued)
}

// CPU emits randomized single transfers and short bursts across a set of
// windows with random idle gaps — the bursty, direction-mixed traffic
// that makes arbitration and data-direction flips frequent.
type CPU struct {
	windows    []Window
	writeRatio float64
	maxGap     int
	max        int64
	r          *rng.Source

	issued int64
	beat   uint64
	pool   dataPool
}

var _ ip.Generator = (*CPU)(nil)

// NewCPU creates a randomized generator over the given windows.
func NewCPU(windows []Window, writeRatio float64, maxGap int, max int64, seed uint64) *CPU {
	if len(windows) == 0 {
		panic("workload: CPU needs at least one window")
	}
	return &CPU{windows: windows, writeRatio: writeRatio, maxGap: maxGap, max: max, r: rng.New(seed)}
}

// Next implements ip.Generator.
func (c *CPU) Next() (ip.Xfer, bool) {
	if c.max > 0 && c.issued >= c.max {
		return ip.Xfer{}, false
	}
	w := c.windows[c.r.Intn(len(c.windows))]
	bursts := []amba.Burst{amba.BurstSingle, amba.BurstSingle, amba.BurstIncr4, amba.BurstWrap4, amba.BurstIncr8}
	b := bursts[c.r.Intn(len(bursts))]
	beats := b.Beats()
	span := amba.Addr(beats * 4)
	if w.Span() < span+span {
		b = amba.BurstSingle
		beats = 1
		span = 4
	}
	slots := int((w.Span() - span) / 4)
	addr := w.Lo
	if slots > 0 {
		addr += amba.Addr(c.r.Intn(slots)) * 4
	}
	if b.Wrapping() {
		// Wrap bursts still need lane alignment only; any word-aligned
		// start is legal.
		_ = addr
	}
	x := ip.Xfer{
		Addr:  addr,
		Write: c.r.Bool(c.writeRatio),
		Size:  amba.Size32,
		Burst: b,
		Gap:   0,
	}
	if c.maxGap > 0 {
		x.Gap = c.r.Intn(c.maxGap + 1)
	}
	if x.Write {
		x.Data = c.pool.get(c.issued, beats)
		for i := range x.Data {
			x.Data[i] = pattern(c.beat + uint64(i))
		}
	}
	c.beat += uint64(beats)
	c.issued++
	return x, true
}

// cpuSnap freezes a CPU generator.
type cpuSnap struct {
	Rng    any
	Issued int64
	Beat   uint64
}

// SaveInto implements rollback.Snapshotter, recycling prev (and
// the PRNG state boxed inside it) when it came from an earlier
// SaveInto of a CPU generator.
func (c *CPU) SaveInto(prev any) any {
	s, ok := prev.(*cpuSnap)
	if !ok {
		s = new(cpuSnap)
	}
	s.Rng = c.r.SaveInto(s.Rng)
	s.Issued = c.issued
	s.Beat = c.beat
	c.pool.saved(c.issued)
	return s
}

// Restore implements rollback.Snapshotter.
func (c *CPU) Restore(v any) {
	s, ok := v.(*cpuSnap)
	if !ok {
		panic(fmt.Sprintf("workload: cpu: bad snapshot %T", v))
	}
	c.r.Restore(s.Rng)
	c.issued = s.Issued
	c.beat = s.Beat
	c.pool.restored(c.issued)
}
