package ip

import (
	"fmt"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
)

// A beat that gets RETRY or SPLIT is reissued, and the rest of its
// burst with it, as an INCR that follows the original burst's addresses
// and takes a fresh NONSEQ at each wrap point of a WRAP burst. These
// tests run a master against a RETRY or SPLIT memory with the protocol
// checker on and compare every finished beat and the memory's final
// contents with the transfers executed in order, one beat after the
// other.

// checkReissue runs xfers through a master that inserts a BUSY before
// every busyEvery-th beat, against a memory that answers the first
// attempt of every every-th beat with a two-cycle RETRY (split false)
// or SPLIT (split true) and waits waits cycles on each beat. Each
// finished beat must have the address, direction and data of its place
// in the transfers; a read returns what the writes before it left. It
// returns the cycle trace and the RETRY and SPLIT responses the master
// absorbed.
func checkReissue(t testing.TB, xfers []Xfer, split bool, every, waits, busyEvery int) ([]amba.CycleState, int64) {
	t.Helper()
	m := NewTrafficMaster("m", seq(xfers...), busyEvery)
	b := bus.New("t")
	b.AddMaster(m)
	var mem *Memory
	var splitter *SplitMemory
	if split {
		splitter = NewSplitMemory("mem", waits, every, 2)
		mem = &splitter.Memory
		b.MapSlave(splitter, bus.Region{Lo: 0, Hi: 0x10000}, 0)
	} else {
		mem = NewRetryMemory("mem", waits, every)
		b.MapSlave(mem, bus.Region{Lo: 0, Hi: 0x10000}, 0)
	}

	// The transfers executed in order: the beats they finish, and the
	// bytes they leave behind.
	model := map[amba.Addr]byte{}
	var want []beat
	limit := 64
	for _, x := range xfers {
		a := x.Addr
		for k := 0; k < x.Beats(); k++ {
			n := x.Size.Bytes()
			var w amba.Word
			if x.Write {
				if k < len(x.Data) {
					w = x.Data[k] & (1<<(8*uint(n)) - 1)
				}
				for i := 0; i < n; i++ {
					model[a+amba.Addr(i)] = byte(w >> (8 * uint(i)))
				}
			} else {
				for i := 0; i < n; i++ {
					w |= amba.Word(model[a+amba.Addr(i)]) << (8 * uint(i))
				}
			}
			want = append(want, beat{Addr: a, Write: x.Write, Data: w})
			a = amba.NextAddr(a, x.Size, x.Burst)
		}
		limit += x.Gap + x.Beats()*(16+4*waits)
	}

	var k amba.Checker
	var trace []amba.CycleState
	log := beats{}
	for cycle := 0; !m.Idle(); cycle++ {
		if cycle > limit {
			t.Fatalf("the master is still busy after %d cycles (%d of %d beats finished)", cycle, len(log[0]), len(want))
		}
		res := log.step(b)
		if splitter != nil {
			splitter.Tick(int64(cycle))
		}
		if err := k.Check(res.State); err != nil {
			t.Fatalf("cycle %d: protocol violation: %v", cycle, err)
		}
		trace = append(trace, res.State)
	}

	got := log[0]
	if len(got) != len(want) {
		t.Fatalf("%d beats finished, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("beat %d finished as %+v, want %+v", i, got[i], want[i])
		}
	}
	for a, v := range model {
		if got := mem.Peek(a); got != v {
			t.Fatalf("memory byte %#x holds %#x, want %#x", uint32(a), got, v)
		}
	}
	_, retries, _ := m.Stats()
	return trace, retries
}

// TestMasterReissueWalk writes a burst and reads it back through a
// RETRY and a SPLIT memory at every cadence 1-3 and BUSY cadence 0, 2
// and 3. Each WRAP burst starts two beats below its wrap boundary, so a
// reissued remainder reaches the wrap point.
func TestMasterReissueWalk(t *testing.T) {
	for _, split := range []bool{false, true} {
		for _, burst := range []amba.Burst{amba.BurstIncr4, amba.BurstWrap4, amba.BurstWrap8, amba.BurstWrap16} {
			for every := 1; every <= 3; every++ {
				for _, busyEvery := range []int{0, 2, 3} {
					name := fmt.Sprintf("split=%v/%v/every=%d/busy_every=%d", split, burst, every, busyEvery)
					t.Run(name, func(t *testing.T) {
						beats := burst.Beats()
						data := make([]amba.Word, beats)
						for i := range data {
							data[i] = 0xa5000000 | amba.Word(i+1)<<8 | amba.Word(every)
						}
						start := amba.Addr(0x1000 + 4*beats - 2*4)
						w := Xfer{Addr: start, Write: true, Size: amba.Size32, Burst: burst, Data: data}
						r := Xfer{Addr: start, Size: amba.Size32, Burst: burst}
						trace, retries := checkReissue(t, []Xfer{w, r}, split, every, 0, busyEvery)
						if retries == 0 {
							t.Fatal("no beat was reissued; the check proves little")
						}
						// A reissued remainder opens with a NONSEQ INCR,
						// and takes one at the wrap boundary.
						wraps := 0
						for _, cs := range trace {
							if cs.AP.Trans == amba.TransNonSeq && cs.AP.Burst == amba.BurstIncr && cs.AP.Addr == 0x1000 {
								wraps++
							}
						}
						if burst.Wrapping() && every == 1 && wraps == 0 {
							t.Fatal("no reissued remainder reached the wrap point; the check proves little")
						}
					})
				}
			}
		}
	}
}

// FuzzMasterReissue decodes a slave, a BUSY cadence and a transfer list
// from the fuzzer's bytes and runs the reissue check over them. The
// first byte gives the slave: RETRY or SPLIT (bit 0), its cadence 1-5
// (bits 1-3) and its wait states 0-2 (bits 4-5); the second the BUSY
// cadence 0-3 (bits 0-1). Each later pair of bytes is one transfer: the
// burst type (bits 0-2), size (bits 3-4) and direction (bit 7) of the
// first, and the beat offset in the wrap window (bits 0-3), gap (bits
// 4-5) and INCR length 1 or 6 (bit 6) of the second. Every transfer
// falls in one 64-byte window, so reads return earlier writes.
func FuzzMasterReissue(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x85, 0x02, 0x05, 0x02})
	f.Add([]byte{0x13, 0x02, 0x87, 0x0e, 0x07, 0x0e, 0x8a, 0x41, 0x01, 0x00})
	f.Add([]byte{0x24, 0x03, 0x96, 0x15, 0x8c, 0x2b, 0x06, 0x05, 0x81, 0x00, 0x13, 0x33})
	f.Add([]byte{0x0b, 0x01, 0x8e, 0x04, 0x83, 0x70, 0x0e, 0x04, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		split, every, waits := b[0]&1 != 0, 1+int(b[0]>>1&7)%5, int(b[0]>>4&3)%3
		busyEvery := int(b[1] & 3)
		b = b[2:]
		if len(b) > 16 {
			b = b[:16]
		}
		bursts := [8]amba.Burst{amba.BurstSingle, amba.BurstIncr, amba.BurstIncr4, amba.BurstIncr8,
			amba.BurstIncr16, amba.BurstWrap4, amba.BurstWrap8, amba.BurstWrap16}
		sizes := [4]amba.Size{amba.Size8, amba.Size16, amba.Size32, amba.Size32}
		xfers := make([]Xfer, 0, len(b)/2)
		for i := 0; i+1 < len(b); i += 2 {
			c0, c1 := b[i], b[i+1]
			x := Xfer{
				Burst: bursts[c0&7],
				Size:  sizes[c0>>3&3],
				Write: c0&0x80 != 0,
				Len:   1 + 5*int(c1>>6&1),
				Gap:   int(c1>>4) & 3,
			}
			beat := amba.Addr(x.Size.Bytes())
			x.Addr = 0x1000 + beat*amba.Addr(c1&15)
			if x.Burst.Wrapping() {
				x.Addr = 0x1000 + beat*amba.Addr(int(c1&15)%x.Burst.Beats())
			}
			if x.Write {
				x.Data = make([]amba.Word, x.Beats())
				for k := range x.Data {
					x.Data[k] = amba.Word(i+1)<<24 | amba.Word(k+1)<<16 | amba.Word(c0)<<8 | amba.Word(c1)
				}
			}
			xfers = append(xfers, x)
		}
		checkReissue(t, xfers, split, every, waits, busyEvery)
	})
}
