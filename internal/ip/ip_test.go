package ip

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/rollback"
)

// beat is one finished beat as the bus saw it: completed with OKAY or
// failed with ERROR, its data normalized to the low bits (the write
// data sent, or the read data received).
type beat struct {
	Addr  amba.Addr
	Write bool
	Data  amba.Word
}

// beats records the finished beats of every master, keyed by master
// index, in completion order.
type beats map[int][]beat

// step advances b one cycle and records the beat the cycle finished,
// if any: the data phase about to complete comes from Bus.DataPhase
// before the cycle, its outcome and data from the cycle's StepResult.
// RETRY and SPLIT responses finish nothing; the master reissues the
// beat later.
func (l beats) step(b *bus.Bus) bus.StepResult {
	_, ap, _, _ := b.DataPhase()
	res := b.Step()
	r := res.State.Reply
	if res.DataValid && r.Ready && (r.Resp == amba.RespOkay || r.Resp == amba.RespError) {
		w := r.RData
		if res.DataWrite {
			w = res.State.WData
		}
		l[res.DataMaster] = append(l[res.DataMaster], beat{
			Addr: ap.Addr, Write: res.DataWrite,
			Data: ExtractLanes(w, ap.Addr, ap.Size) >> laneShift(ap.Addr, ap.Size),
		})
	}
	return res
}

// run steps the bus n cycles with the protocol checker attached, failing
// the test on any violation, and returns the cycle trace and the
// finished beats.
func run(t *testing.T, b *bus.Bus, n int) ([]amba.CycleState, beats) {
	t.Helper()
	var k amba.Checker
	var trace []amba.CycleState
	log := beats{}
	for i := 0; i < n; i++ {
		res := log.step(b)
		if err := k.Check(res.State); err != nil {
			t.Fatalf("protocol violation: %v", err)
		}
		trace = append(trace, res.State)
	}
	return trace, log
}

func seq(xfers ...Xfer) Generator { return &sliceGen{xfers: xfers} }

// sliceGen is a minimal local generator (the workload package provides
// the real ones; keeping a local copy avoids an import cycle in tests).
type sliceGen struct {
	xfers []Xfer
	i     int
}

func (g *sliceGen) Next() (Xfer, bool) {
	if g.i >= len(g.xfers) {
		return Xfer{}, false
	}
	x := g.xfers[g.i]
	g.i++
	return x, true
}

func (g *sliceGen) SaveInto(any) any { return g.i }
func (g *sliceGen) Restore(v any)    { g.i = v.(int) }

func TestLaneHelpers(t *testing.T) {
	// Byte at offset 2 occupies bits 16..23.
	if got := laneShift(0x1002, amba.Size8); got != 16 {
		t.Errorf("laneShift byte@2 = %d, want 16", got)
	}
	if got := laneMask(0x1002, amba.Size8); got != 0x00ff0000 {
		t.Errorf("laneMask byte@2 = %08x", uint32(got))
	}
	// Halfword at offset 2 occupies bits 16..31.
	if got := laneMask(0x1002, amba.Size16); got != 0xffff0000 {
		t.Errorf("laneMask half@2 = %08x", uint32(got))
	}
	if got := laneMask(0x1000, amba.Size32); got != 0xffffffff {
		t.Errorf("laneMask word = %08x", uint32(got))
	}
	w := InsertLanes(0xAABBCCDD, 0x00110000, 0x1002, amba.Size8)
	if w != 0xAA11CCDD {
		t.Errorf("InsertLanes = %08x", uint32(w))
	}
	if got := ExtractLanes(0xAABBCCDD, 0x1002, amba.Size16); got != 0xAABB0000 {
		t.Errorf("ExtractLanes = %08x", uint32(got))
	}
}

func TestMasterWriteThenReadBack(t *testing.T) {
	data := []amba.Word{0x11111111, 0x22222222, 0x33333333, 0x44444444}
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x100, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: data},
		Xfer{Addr: 0x100, Write: false, Size: amba.Size32, Burst: amba.BurstIncr4},
	), 0)
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)

	_, bl := run(t, b, 30)
	if !m.Idle() {
		t.Fatal("master did not finish")
	}
	log := bl[0]
	if len(log) != 8 {
		t.Fatalf("log has %d beats, want 8", len(log))
	}
	for i := 0; i < 4; i++ {
		if got := mem.PeekWord(amba.Addr(0x100 + 4*i)); got != data[i] {
			t.Errorf("mem[%x] = %08x, want %08x", 0x100+4*i, uint32(got), uint32(data[i]))
		}
		rd := log[4+i]
		if rd.Write || rd.Data != data[i] {
			t.Errorf("readback beat %d = %+v", i, rd)
		}
	}
}

func TestMasterSubWordLanes(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x102, Write: true, Size: amba.Size8, Burst: amba.BurstSingle, Data: []amba.Word{0xAB}},
		Xfer{Addr: 0x100, Write: true, Size: amba.Size16, Burst: amba.BurstSingle, Data: []amba.Word{0x1234}},
		Xfer{Addr: 0x102, Write: false, Size: amba.Size8, Burst: amba.BurstSingle},
		Xfer{Addr: 0x100, Write: false, Size: amba.Size32, Burst: amba.BurstSingle},
	), 0)
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	_, bl := run(t, b, 30)

	log := bl[0]
	if len(log) != 4 {
		t.Fatalf("log %d beats, want 4", len(log))
	}
	if log[2].Data != 0xAB {
		t.Errorf("byte readback = %02x, want AB", uint32(log[2].Data))
	}
	// Word at 0x100: halfword 0x1234 at offset 0, byte AB at offset 2.
	if want := amba.Word(0x00AB1234); log[3].Data != want {
		t.Errorf("word readback = %08x, want %08x", uint32(log[3].Data), uint32(want))
	}
}

func TestMasterWrapBurst(t *testing.T) {
	data := []amba.Word{1, 2, 3, 4}
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x38, Write: true, Size: amba.Size32, Burst: amba.BurstWrap4, Data: data},
	), 0)
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	run(t, b, 20)

	wantAddrs := []amba.Addr{0x38, 0x3c, 0x30, 0x34}
	for i, a := range wantAddrs {
		if got := mem.PeekWord(a); got != data[i] {
			t.Errorf("mem[%x] = %d, want %d", a, got, data[i])
		}
	}
}

func TestMasterWaitStates(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x10, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{5, 6, 7, 8}},
		Xfer{Addr: 0x10, Write: false, Size: amba.Size32, Burst: amba.BurstIncr4},
	), 0)
	mem := NewMemory("mem", 3, 1) // slow first beat, one wait after
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	_, bl := run(t, b, 80)

	if !m.Idle() {
		t.Fatal("master did not finish against wait states")
	}
	log := bl[0]
	if len(log) != 8 {
		t.Fatalf("%d beats, want 8", len(log))
	}
	for i, want := range []amba.Word{5, 6, 7, 8} {
		if log[4+i].Data != want {
			t.Errorf("readback %d = %d, want %d", i, log[4+i].Data, want)
		}
	}
}

func TestMasterBusyInsertion(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x20, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8,
			Data: []amba.Word{1, 2, 3, 4, 5, 6, 7, 8}},
	), 2) // BUSY before every 2nd beat
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	trace, _ := run(t, b, 40)

	busies := 0
	for _, cs := range trace {
		if cs.AP.Trans == amba.TransBusy {
			busies++
		}
	}
	if busies == 0 {
		t.Fatal("no BUSY cycles inserted")
	}
	if beats, _, _ := m.Stats(); beats != 8 {
		t.Fatalf("beats = %d, want 8", beats)
	}
	for i := 0; i < 8; i++ {
		if got := mem.PeekWord(amba.Addr(0x20 + 4*i)); got != amba.Word(i+1) {
			t.Errorf("mem[%x] = %d", 0x20+4*i, got)
		}
	}
}

func TestMasterRetryReissue(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x40, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{9, 8, 7, 6}},
	), 0)
	mem := NewRetryMemory("mem", 0, 3) // RETRY first attempt of every 3rd beat
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	run(t, b, 60)

	beats, retries, errs := m.Stats()
	if beats != 4 {
		t.Fatalf("beats = %d, want 4", beats)
	}
	if retries == 0 {
		t.Fatal("no retries seen")
	}
	if errs != 0 {
		t.Fatalf("errors = %d", errs)
	}
	for i, want := range []amba.Word{9, 8, 7, 6} {
		if got := mem.PeekWord(amba.Addr(0x40 + 4*i)); got != want {
			t.Errorf("mem[%x] = %d, want %d", 0x40+4*i, got, want)
		}
	}
}

func TestMasterErrorAbortsTransfer(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x40, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{1, 2, 3, 4}},
		Xfer{Addr: 0x80, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{5}},
	), 0)
	errSlave := NewErrorSlave("err")
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(errSlave, bus.Region{Lo: 0x40, Hi: 0x80}, 0)
	b.MapSlave(mem, bus.Region{Lo: 0x80, Hi: 0x1000}, 0)
	run(t, b, 40)

	_, _, errs := m.Stats()
	if errs != 1 {
		t.Fatalf("errors = %d, want 1 (burst aborted on first ERROR)", errs)
	}
	if !m.Idle() {
		t.Fatal("master should have moved on after the abort")
	}
	if got := mem.PeekWord(0x80); got != 5 {
		t.Fatalf("follow-up transfer did not complete: mem[0x80]=%d", got)
	}
}

func TestTwoMastersInterleave(t *testing.T) {
	m0 := NewTrafficMaster("m0", seq(
		Xfer{Addr: 0x00, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8,
			Data: []amba.Word{1, 2, 3, 4, 5, 6, 7, 8}},
	), 0)
	m1 := NewTrafficMaster("m1", seq(
		Xfer{Addr: 0x100, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8,
			Data: []amba.Word{11, 12, 13, 14, 15, 16, 17, 18}},
	), 0)
	mem := NewSRAM("mem")
	b := bus.New("t")
	b.AddMaster(m0)
	b.AddMaster(m1)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	run(t, b, 60)

	if !m0.Idle() || !m1.Idle() {
		t.Fatal("masters did not finish")
	}
	for i := 0; i < 8; i++ {
		if got := mem.PeekWord(amba.Addr(4 * i)); got != amba.Word(i+1) {
			t.Errorf("m0 data: mem[%x] = %d", 4*i, got)
		}
		if got := mem.PeekWord(amba.Addr(0x100 + 4*i)); got != amba.Word(i+11) {
			t.Errorf("m1 data: mem[%x] = %d", 0x100+4*i, got)
		}
	}
}

// TestSnapshotReplayDeterminism is the rollback cornerstone: freeze the
// whole system mid-flight, run N cycles, restore, run N cycles again —
// the two traces must be bit-identical.
func TestSnapshotReplayDeterminism(t *testing.T) {
	build := func() (*bus.Bus, []rollback.Snapshotter) {
		gen := &sliceGen{xfers: []Xfer{
			{Addr: 0x10, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8, Data: []amba.Word{1, 2, 3, 4, 5, 6, 7, 8}},
			{Addr: 0x10, Write: false, Size: amba.Size32, Burst: amba.BurstIncr8, Gap: 2},
			{Addr: 0x40, Write: true, Size: amba.Size32, Burst: amba.BurstWrap4, Data: []amba.Word{9, 9, 9, 9}},
			{Addr: 0x40, Write: false, Size: amba.Size32, Burst: amba.BurstWrap4},
		}}
		m := NewTrafficMaster("m", gen, 3)
		mem := NewJitterMemory("mem", 1, 2, 77)
		b := bus.New("t")
		b.AddMaster(m)
		b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
		snaps := []rollback.Snapshotter{b, m, gen, mem}
		return b, snaps
	}

	b, snaps := build()
	for i := 0; i < 7; i++ {
		b.Step()
	}
	saved := make([]any, len(snaps))
	for i, s := range snaps {
		saved[i] = s.SaveInto(nil)
	}
	const n = 25
	var first []amba.CycleState
	for i := 0; i < n; i++ {
		first = append(first, b.Step().State)
	}
	for i, s := range snaps {
		s.Restore(saved[i])
	}
	for i := 0; i < n; i++ {
		got := b.Step().State
		if !got.Equal(first[i]) {
			t.Fatalf("replay diverged at cycle %d:\nfirst:  %s\nreplay: %s", i, first[i], got)
		}
	}
}

func TestJitterMemoryVariesLatency(t *testing.T) {
	var xfers []Xfer
	for i := 0; i < 12; i++ {
		xfers = append(xfers, Xfer{Addr: amba.Addr(0x10 + 4*i), Write: false, Size: amba.Size32, Burst: amba.BurstSingle})
	}
	m := NewTrafficMaster("m", seq(xfers...), 0)
	mem := NewJitterMemory("mem", 0, 3, 123)
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	trace, _ := run(t, b, 120)

	waits := 0
	for _, cs := range trace {
		if !cs.Reply.Ready {
			waits++
		}
	}
	if waits == 0 {
		t.Fatal("jitter memory never inserted a wait state")
	}
	if beats, _, _ := m.Stats(); beats != 12 {
		t.Fatalf("beats = %d, want 12", beats)
	}
}

func TestIRQPeriph(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		// Start the countdown: fire after 5 cycles.
		Xfer{Addr: 0x800 + PeriphCtrl, Write: true, Size: amba.Size32, Burst: amba.BurstSingle, Data: []amba.Word{5}},
		// Poll status later (read-to-clear).
		Xfer{Addr: 0x800 + PeriphStatus, Write: false, Size: amba.Size32, Burst: amba.BurstSingle, Gap: 12},
		Xfer{Addr: 0x800 + PeriphCount, Write: false, Size: amba.Size32, Burst: amba.BurstSingle},
	), 0)
	p := NewIRQPeriph("irq", 0x1)
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(p, bus.Region{Lo: 0x800, Hi: 0x900}, 0x1)

	sawIRQ := false
	var k amba.Checker
	bl := beats{}
	for i := 0; i < 60; i++ {
		res := bl.step(b)
		p.Tick(int64(i))
		if err := k.Check(res.State); err != nil {
			t.Fatalf("protocol violation: %v", err)
		}
		if res.State.IRQ&0x1 != 0 {
			sawIRQ = true
		}
	}
	if !sawIRQ {
		t.Fatal("interrupt line never raised")
	}
	log := bl[0]
	if len(log) != 3 {
		t.Fatalf("log %d, want 3", len(log))
	}
	if log[1].Data != 1 {
		t.Errorf("status read = %d, want 1 (pending)", log[1].Data)
	}
	if log[2].Data != 1 {
		t.Errorf("count read = %d, want 1", log[2].Data)
	}
	if p.IRQ() != 0 {
		t.Error("status read must clear the interrupt")
	}
}

func TestMemoryPokePeek(t *testing.T) {
	mem := NewSRAM("m")
	mem.PokeWord(0x100, 0xDEADBEEF)
	if got := mem.PeekWord(0x100); got != 0xDEADBEEF {
		t.Fatalf("PeekWord = %08x", uint32(got))
	}
	if got := mem.Peek(0x101); got != 0xBE {
		t.Fatalf("Peek byte = %02x", got)
	}
	mem.Poke(0x102, 0x55)
	if got := mem.PeekWord(0x100); got != 0xDE55BEEF {
		t.Fatalf("after Poke = %08x", uint32(got))
	}
}

func TestXferBeats(t *testing.T) {
	if (Xfer{Burst: amba.BurstIncr4}).Beats() != 4 {
		t.Error("INCR4 beats")
	}
	if (Xfer{Burst: amba.BurstIncr, Len: 7}).Beats() != 7 {
		t.Error("INCR len beats")
	}
	if (Xfer{Burst: amba.BurstIncr}).Beats() != 1 {
		t.Error("INCR default beats")
	}
}
