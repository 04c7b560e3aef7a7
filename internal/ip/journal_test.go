package ip

import (
	"testing"

	"coemu/internal/amba"
)

func wordWrite(addr amba.Addr, w amba.Word) amba.AddrPhase {
	return amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstSingle}
}

// memModel is the value model the page-stash tests check a Memory
// against: plain byte contents and beat counters, copied whole at
// every save, so any snapshot is trivially restorable.
type memModel struct {
	bytes         map[amba.Addr]byte
	reads, writes int64
}

func newMemModel() *memModel { return &memModel{bytes: make(map[amba.Addr]byte)} }

func (m *memModel) clone() *memModel {
	c := &memModel{bytes: make(map[amba.Addr]byte, len(m.bytes)), reads: m.reads, writes: m.writes}
	for a, b := range m.bytes {
		c.bytes[a] = b
	}
	return c
}

// write lands the active byte lanes of an aligned transfer at ap.
func (m *memModel) write(ap amba.AddrPhase, wdata amba.Word) {
	first := int(ap.Addr & 3)
	for lane := first; lane < first+ap.Size.Bytes(); lane++ {
		m.bytes[ap.Addr&^3+amba.Addr(lane)] = byte(wdata >> (8 * uint(lane)))
	}
}

// check compares every byte the model has seen, and Stats, against mem.
func (m *memModel) check(t testing.TB, mem *Memory, step int) {
	t.Helper()
	for a, want := range m.bytes {
		if got := mem.Peek(a); got != want {
			t.Fatalf("step %d: mem[%#x] = %#02x, model has %#02x", step, a, got, want)
		}
	}
	if r, w := mem.Stats(); r != m.reads || w != m.writes {
		t.Fatalf("step %d: Stats() = %d reads, %d writes; model has %d, %d", step, r, w, m.reads, m.writes)
	}
}

func TestMemoryJournalRestore(t *testing.T) {
	m := NewSRAM("m")
	m.PokeWord(0x100, 0x11111111)

	snap := m.SaveInto(nil)
	// Overwrite an existing word, create a fresh one, and poke a byte.
	m.WriteCommit(wordWrite(0x100, 0), 0x22222222)
	m.WriteCommit(wordWrite(0x200, 0), 0x33333333)
	m.WriteCommit(amba.AddrPhase{Addr: 0x102, Write: true, Size: amba.Size8}, 0x00AB0000)
	if m.PeekWord(0x100) == 0x11111111 {
		t.Fatal("writes did not land")
	}

	m.Restore(snap)
	if got := m.PeekWord(0x100); got != 0x11111111 {
		t.Fatalf("restored 0x100 = %08x", uint32(got))
	}
	if got := m.PeekWord(0x200); got != 0 {
		t.Fatalf("restored 0x200 = %08x, want pristine 0", uint32(got))
	}
	// Never-written cells must read pristine after the undo.
	for i := amba.Addr(0); i < 4; i++ {
		if b := m.Peek(0x200 + i); b != 0 {
			t.Fatalf("journal restore left ghost byte %02x at %x", b, 0x200+i)
		}
	}
}

func TestMemoryJournalRepeatedTransitions(t *testing.T) {
	// The engine's pattern: save, mutate, sometimes restore, save again.
	m := NewSRAM("m")
	model := newMemModel()
	write := func(addr amba.Addr, v amba.Word) {
		m.WriteCommit(wordWrite(addr, 0), v)
		model.write(wordWrite(addr, 0), v)
	}
	for round := 0; round < 50; round++ {
		snap := m.SaveInto(nil)
		saved := model.clone()
		for i := 0; i < 10; i++ {
			write(amba.Addr(0x100+4*((round*7+i*3)%64)), amba.Word(round*100+i))
		}
		if round%3 == 0 {
			m.Restore(snap)
			model = saved.clone()
		}
		model.check(t, m, round)
	}
}

func TestMemoryJournalStaleRestorePanics(t *testing.T) {
	m := NewSRAM("m")
	old := m.SaveInto(nil)
	m.SaveInto(nil) // newer save invalidates old
	defer func() {
		if recover() == nil {
			t.Fatal("stale journal restore must panic")
		}
	}()
	m.Restore(old)
}

// fuzzPages are the 4 KB pages FuzzMemoryJournal spreads its accesses
// over: adjacent and distant page keys alike.
var fuzzPages = [...]amba.Addr{0x0000, 0x1000, 0x5000, 0x7f000}

// FuzzMemoryJournal drives a Memory through a byte-decoded sequence of
// write beats (word, half-word and byte), Pokes, read beats, saves and
// restores, and checks it against memModel after every op. Restoring
// the latest save is legal any number of times; restoring an older one
// must panic and leave the memory untouched.
func FuzzMemoryJournal(f *testing.F) {
	f.Add([]byte{0, 0, 7, 3, 0, 0x41, 9, 4, 4, 1, 0x82, 3, 3, 5, 2, 0x11, 7})
	f.Add([]byte{3, 0, 0x20, 1, 0, 0x31, 2, 1, 0x12, 3, 4, 0, 0x23, 5, 5, 4})
	f.Add([]byte{0, 0x21, 0x40, 0, 0x12, 0x40, 3, 0, 0x21, 0x40, 1, 0x23, 0x41, 4, 4, 2, 0x21, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewSRAM("m")
		model := newMemModel()
		type save struct {
			snap  any
			model *memModel
		}
		var saves []save
		for step := 0; step+2 < len(ops); step += 3 {
			op, b1, b2 := ops[step], ops[step+1], ops[step+2]
			// b1 picks the page, the byte lane and the size; b2 the word.
			size := min(amba.Size((b1>>4)&3), amba.Size32)
			addr := fuzzPages[b1&3] | amba.Addr(b2)<<2 | amba.Addr((b1>>2)&3)
			addr &^= amba.Addr(size.Bytes() - 1) // AHB transfers are aligned
			switch op % 6 {
			case 0: // write beat
				ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Write: true, Size: size}
				wdata := amba.Word(step+1) * 0x9E3779B1
				if r := m.Respond(ap); !r.Ready {
					t.Fatalf("step %d: zero-wait write beat not ready", step)
				}
				m.WriteCommit(ap, wdata)
				m.Commit(true)
				model.write(ap, wdata)
				model.writes++
			case 1: // Poke
				m.Poke(addr, b2^op)
				model.bytes[addr] = b2 ^ op
			case 2: // read beat
				ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: size}
				r := m.Respond(ap)
				if !r.Ready {
					t.Fatalf("step %d: zero-wait read beat not ready", step)
				}
				m.Commit(true)
				model.reads++
				var want amba.Word
				first := int(addr & 3)
				for lane := first; lane < first+size.Bytes(); lane++ {
					want |= amba.Word(model.bytes[addr&^3+amba.Addr(lane)]) << (8 * uint(lane))
				}
				if r.RData != want {
					t.Fatalf("step %d: read %#x size %d = %08x, model has %08x", step, addr, size, uint32(r.RData), uint32(want))
				}
			case 3: // save
				saves = append(saves, save{m.SaveInto(nil), model.clone()})
			case 4: // restore the latest save, any number of times
				if len(saves) == 0 {
					continue
				}
				last := saves[len(saves)-1]
				m.Restore(last.snap)
				model = last.model.clone()
			case 5: // restore an older save: must panic
				if len(saves) < 2 {
					continue
				}
				old := saves[int(b2)%(len(saves)-1)]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d: restoring an older save did not panic", step)
						}
					}()
					m.Restore(old.snap)
				}()
			}
			model.check(t, m, step)
		}
	})
}
