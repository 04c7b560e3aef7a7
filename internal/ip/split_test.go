package ip

import (
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
)

// runSplit steps a bus whose slaves include SplitMemory instances,
// ticking them each cycle (the engine/reference runner does the same),
// and returns the cycle trace and the finished beats.
func runSplit(t *testing.T, b *bus.Bus, tickers []*SplitMemory, n int) ([]amba.CycleState, beats) {
	t.Helper()
	var k amba.Checker
	var trace []amba.CycleState
	log := beats{}
	for i := 0; i < n; i++ {
		res := log.step(b)
		for _, s := range tickers {
			s.Tick(int64(i))
		}
		if err := k.Check(res.State); err != nil {
			t.Fatalf("protocol violation: %v", err)
		}
		trace = append(trace, res.State)
	}
	return trace, log
}

func TestSplitMemoryCompletesTransfer(t *testing.T) {
	m := NewTrafficMaster("m", seq(
		Xfer{Addr: 0x10, Write: true, Size: amba.Size32, Burst: amba.BurstIncr4, Data: []amba.Word{1, 2, 3, 4}},
		Xfer{Addr: 0x10, Write: false, Size: amba.Size32, Burst: amba.BurstIncr4},
	), 0)
	mem := NewSplitMemory("mem", 0, 3, 4) // SPLIT every 3rd beat, release after 4 cycles
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)

	trace, bl := runSplit(t, b, []*SplitMemory{mem}, 120)

	if mem.Splits() == 0 {
		t.Fatal("no SPLIT responses issued")
	}
	if !m.Idle() {
		t.Fatal("master did not finish")
	}
	log := bl[0]
	if len(log) != 8 {
		t.Fatalf("%d beats, want 8", len(log))
	}
	for i, want := range []amba.Word{1, 2, 3, 4} {
		if log[4+i].Data != want {
			t.Errorf("readback %d = %d, want %d", i, log[4+i].Data, want)
		}
	}
	// The split window must contain idle cycles where the master was
	// masked (it drives IDLE despite owning the grant).
	sawSplit := false
	for _, cs := range trace {
		if cs.Reply.Resp == amba.RespSplit {
			sawSplit = true
		}
		if cs.Split != 0 && cs.Split&1 == 0 {
			t.Fatalf("split release for wrong master: %x", cs.Split)
		}
	}
	if !sawSplit {
		t.Fatal("SPLIT never visible on the bus")
	}
}

func TestSplitFreesBusForOtherMaster(t *testing.T) {
	// m0 targets the splitting slave; m1 targets a plain SRAM. While m0
	// is split-masked, m1 must make progress.
	m0 := NewTrafficMaster("m0", seq(
		Xfer{Addr: 0x10, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8,
			Data: []amba.Word{1, 2, 3, 4, 5, 6, 7, 8}},
	), 0)
	m1 := NewTrafficMaster("m1", seq(
		Xfer{Addr: 0x1000, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8,
			Data: []amba.Word{11, 12, 13, 14, 15, 16, 17, 18}},
	), 0)
	split := NewSplitMemory("split", 0, 2, 10)
	sram := NewSRAM("sram")
	b := bus.New("t")
	b.AddMaster(m0)
	b.AddMaster(m1)
	b.MapSlave(split, bus.Region{Lo: 0, Hi: 0x1000}, 0)
	b.MapSlave(sram, bus.Region{Lo: 0x1000, Hi: 0x2000}, 0)

	var m1DoneAt, m0DoneAt int
	var k amba.Checker
	for i := 0; i < 300; i++ {
		res := b.Step()
		split.Tick(int64(i))
		if err := k.Check(res.State); err != nil {
			t.Fatalf("protocol violation: %v", err)
		}
		if m1.Idle() && m1DoneAt == 0 {
			m1DoneAt = i
		}
		if m0.Idle() && m0DoneAt == 0 {
			m0DoneAt = i
		}
	}
	if m0DoneAt == 0 || m1DoneAt == 0 {
		t.Fatalf("masters did not finish (m0=%d m1=%d)", m0DoneAt, m1DoneAt)
	}
	// m0 has priority, so without SPLIT it would finish first; the
	// splits hand the bus to m1, which must overtake.
	if m1DoneAt >= m0DoneAt {
		t.Fatalf("split-masked m0 (done %d) should not beat m1 (done %d)", m0DoneAt, m1DoneAt)
	}
	if beats, _, _ := m0.Stats(); beats != 8 {
		t.Fatalf("m0 beats = %d", beats)
	}
	for i := 0; i < 8; i++ {
		if got := split.PeekWord(amba.Addr(0x10 + 4*i)); got != amba.Word(i+1) {
			t.Errorf("split mem[%x] = %d", 0x10+4*i, got)
		}
	}
}

func TestSplitMemorySnapshotReplay(t *testing.T) {
	gen := &sliceGen{xfers: []Xfer{
		{Addr: 0x10, Write: true, Size: amba.Size32, Burst: amba.BurstIncr8, Data: []amba.Word{1, 2, 3, 4, 5, 6, 7, 8}},
	}}
	m := NewTrafficMaster("m", gen, 0)
	mem := NewSplitMemory("mem", 1, 3, 5)
	b := bus.New("t")
	b.AddMaster(m)
	b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x1000}, 0)

	step := func(i int) amba.CycleState {
		res := b.Step()
		mem.Tick(int64(i))
		return res.State
	}
	for i := 0; i < 6; i++ {
		step(i)
	}
	snaps := []any{b.SaveInto(nil), m.SaveInto(nil), gen.SaveInto(nil), mem.SaveInto(nil)}
	var first []amba.CycleState
	for i := 6; i < 40; i++ {
		first = append(first, step(i))
	}
	b.Restore(snaps[0])
	m.Restore(snaps[1])
	gen.Restore(snaps[2])
	mem.Restore(snaps[3])
	for i := 6; i < 40; i++ {
		got := step(i)
		if !got.Equal(first[i-6]) {
			t.Fatalf("replay diverged at cycle %d:\n%s\n%s", i, first[i-6], got)
		}
	}
}

func TestSplitMemoryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("splitEvery=0 must panic")
		}
	}()
	NewSplitMemory("x", 0, 0, 1)
}
