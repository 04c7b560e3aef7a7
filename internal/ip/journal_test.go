package ip

import (
	"testing"

	"coemu/internal/amba"
)

func wordWrite(addr amba.Addr, w amba.Word) amba.AddrPhase {
	return amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstSingle}
}

func TestMemoryJournalRestore(t *testing.T) {
	m := NewSRAM("m")
	m.SetJournaling(true)
	m.PokeWord(0x100, 0x11111111)

	snap := m.Save()
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
	m.SetJournaling(true)
	control := NewSRAM("control") // full-copy mode as ground truth

	write := func(addr amba.Addr, v amba.Word) {
		m.WriteCommit(wordWrite(addr, 0), v)
		control.WriteCommit(wordWrite(addr, 0), v)
	}
	for round := 0; round < 50; round++ {
		sj := m.Save()
		sc := control.Save()
		for i := 0; i < 10; i++ {
			write(amba.Addr(0x100+4*((round*7+i*3)%64)), amba.Word(round*100+i))
		}
		if round%3 == 0 {
			m.Restore(sj)
			control.Restore(sc)
		}
	}
	for a := amba.Addr(0x100); a < 0x200; a += 4 {
		if m.PeekWord(a) != control.PeekWord(a) {
			t.Fatalf("journal and copy modes diverge at %x: %08x vs %08x",
				a, uint32(m.PeekWord(a)), uint32(control.PeekWord(a)))
		}
	}
}

func TestMemoryJournalStaleRestorePanics(t *testing.T) {
	m := NewSRAM("m")
	m.SetJournaling(true)
	old := m.Save()
	m.Save() // newer save invalidates old
	defer func() {
		if recover() == nil {
			t.Fatal("stale journal restore must panic")
		}
	}()
	m.Restore(old)
}

func TestJournalModeOffKeepsValueSemantics(t *testing.T) {
	// Full-copy mode allows restoring any older snapshot.
	m := NewSRAM("m")
	m.PokeWord(0x10, 1)
	s1 := m.Save()
	m.PokeWord(0x10, 2)
	s2 := m.Save()
	m.PokeWord(0x10, 3)
	m.Restore(s1)
	if m.PeekWord(0x10) != 1 {
		t.Fatal("restore s1 failed")
	}
	m.Restore(s2)
	if m.PeekWord(0x10) != 2 {
		t.Fatal("restore s2 failed")
	}
}

// TestMemoryPageCacheDroppedOnFullCopyRestore pins the last-page cache
// against the one path that deletes page pointers: a full-copy Restore
// drops pages created after the save, so neither a read nor a write
// may reach the deleted page the cache last held.
func TestMemoryPageCacheDroppedOnFullCopyRestore(t *testing.T) {
	m := NewSRAM("m")
	m.PokeWord(0x100, 1)
	snap := m.Save()
	m.PokeWord(0x2100, 2) // a fresh page, now the cached one
	m.Restore(snap)
	if got := m.PeekWord(0x2100); got != 0 {
		t.Fatalf("restored 0x2100 = %08x, want pristine 0", uint32(got))
	}
	m.PokeWord(0x2104, 3)
	after := m.Save()
	m.PokeWord(0x2104, 4)
	m.Restore(after)
	if got := m.PeekWord(0x2104); got != 3 {
		t.Fatalf("0x2104 = %08x after a save/restore round trip, want 3", uint32(got))
	}
	if got := m.PeekWord(0x2100); got != 0 {
		t.Fatalf("deleted page came back: 0x2100 = %08x", uint32(got))
	}
	if got := m.PeekWord(0x100); got != 1 {
		t.Fatalf("0x100 = %08x, want 1", uint32(got))
	}
}
