package bus

import (
	"fmt"
	"strings"
	"testing"

	"coemu/internal/amba"
)

// TestExternalMasterContribution drives a half-bus whose only master is
// external: the address phase and write data arrive via the remote
// contribution, and the local slave must see the beats.
func TestExternalMasterContribution(t *testing.T) {
	b := New("half")
	b.AddExternalMaster("remote-dma")
	s := &stubSlave{name: "mem"}
	b.MapSlave(s, Region{0, 0x1000}, 0)

	remote := func(ap amba.AddrPhase, wdata amba.Word, hasWD bool) amba.PartialState {
		return amba.PartialState{
			Req: 1, ReqMask: 1,
			HasAP: true, AP: ap,
			HasWData: hasWD, WData: wdata,
		}
	}

	var local amba.PartialState
	b.EvaluateInto(&local)
	if local.HasAP {
		t.Fatal("half-bus with external grant owner must not claim the address phase")
	}
	if local.ReqMask != 0 {
		t.Fatalf("local req mask = %x, want 0", local.ReqMask)
	}
	beat := amba.AddrPhase{Addr: 0x40, Trans: amba.TransNonSeq, Write: true, Size: amba.Size32, Burst: amba.BurstSingle}
	in := remote(beat, 0, false)
	b.CommitFrom(&in)

	// Data phase: the local slave replies; write data is remote.
	b.EvaluateInto(&local)
	if !local.HasReply {
		t.Fatal("local slave must own the reply")
	}
	if local.HasWData {
		t.Fatal("write data belongs to the remote master")
	}
	in = remote(amba.AddrPhase{}, 0xABCD0123, true)
	res := b.CommitFrom(&in)
	if !res.DataValid || res.State.WData != 0xABCD0123 {
		t.Fatalf("data phase result %+v", res)
	}
	if len(s.writes) != 1 || s.writes[0] != 0xABCD0123 {
		t.Fatalf("slave writes %v", s.writes)
	}
}

// TestExternalSlaveContribution drives a half-bus whose slave region is
// external: replies come from the remote contribution.
func TestExternalSlaveContribution(t *testing.T) {
	b := New("half")
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		singleBeat(0x40, false),
		{}, {}, {},
	}}
	b.AddMaster(m)
	b.MapExternalSlave("remote-mem", Region{0, 0x1000})

	// Cycle 0: local master presents; no data phase yet.
	var local amba.PartialState
	b.EvaluateInto(&local)
	if !local.HasAP || local.HasReply {
		t.Fatalf("cycle 0 contribution %+v", local)
	}
	b.CommitFrom(&amba.PartialState{})

	// Cycle 1: the beat is in the external slave's data phase; the
	// reply must come from the remote side.
	b.EvaluateInto(&local)
	if local.HasReply {
		t.Fatal("external slave's reply claimed locally")
	}
	res := b.CommitFrom(&amba.PartialState{
		HasReply: true,
		Reply:    amba.SlaveReply{Ready: true, Resp: amba.RespOkay, RData: 0x5555},
	})
	if !res.State.Reply.Ready || res.State.Reply.RData != 0x5555 {
		t.Fatalf("merged reply %v", res.State.Reply)
	}
	if !m.fbs[1].OwnsData || m.fbs[1].RData != 0x5555 {
		t.Fatalf("master feedback %+v", m.fbs[1])
	}
}

// TestDefaultSlaveOwnership: the non-owning half-bus leaves default
// replies to the remote contribution.
func TestDefaultSlaveOwnership(t *testing.T) {
	b := New("half")
	b.SetOwnsDefault(false)
	m := &scriptMaster{name: "m", drives: []MasterDrive{
		singleBeat(0x9000, true), // unmapped
		{}, {},
	}}
	b.AddMaster(m)
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)

	var local amba.PartialState
	b.EvaluateInto(&local)
	b.CommitFrom(&amba.PartialState{})
	b.EvaluateInto(&local)
	if local.HasReply {
		t.Fatal("non-owner must not drive default-slave replies")
	}
	res := b.CommitFrom(&amba.PartialState{
		HasReply: true,
		Reply:    amba.SlaveReply{Ready: false, Resp: amba.RespError},
	})
	if res.State.Reply.Resp != amba.RespError {
		t.Fatalf("merged default reply %v", res.State.Reply)
	}
	if !b.OwnsDefaultSlave() == false {
		t.Fatal("ownership accessor inconsistent")
	}
}

func TestEvaluateCommitGuards(t *testing.T) {
	b := New("g")
	b.AddMaster(&scriptMaster{name: "m"})
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	var local, none amba.PartialState
	mustPanic("commit without evaluate", func() { b.CommitFrom(&none) })
	b.EvaluateInto(&local)
	mustPanic("double evaluate", func() { b.EvaluateInto(&local) })
	mustPanic("save mid-cycle", func() { b.SaveInto(nil) })
	b.CommitFrom(&none)
}

// TestCommitMergesCallerBufferRestoreDropsIt pins the buffer contract:
// CommitFrom merges the local contribution from the buffer EvaluateInto
// was given (so a write to it in between, which callers must not make,
// shows in the merged record), and a Restore between the two drops that
// buffer, so the next CommitFrom panics.
func TestCommitMergesCallerBufferRestoreDropsIt(t *testing.T) {
	b := New("r")
	b.AddMaster(&scriptMaster{name: "m", drives: []MasterDrive{singleBeat(0x40, false)}})
	b.MapSlave(&stubSlave{name: "s"}, Region{0, 0x1000}, 0)
	snap := b.SaveInto(nil)

	var local, none amba.PartialState
	b.EvaluateInto(&local)
	if !local.HasAP || local.AP.Addr != 0x40 {
		t.Fatalf("local contribution %+v, want the 0x40 address phase", local)
	}
	local.AP.Addr = 0x80
	if res := b.CommitFrom(&none); res.State.AP.Addr != 0x80 {
		t.Fatalf("merged address %#x, want 0x80 from the caller's buffer", res.State.AP.Addr)
	}

	b.EvaluateInto(&local)
	b.Restore(snap)
	func() {
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, "Commit without Evaluate") {
				t.Fatalf("CommitFrom after Restore: recovered %q, want the Commit without Evaluate panic", r)
			}
		}()
		b.CommitFrom(&none)
	}()
	// The restore cancelled the pending Evaluate: the next cycle runs.
	b.EvaluateInto(&local)
	b.CommitFrom(&none)
}

func TestLocalMasks(t *testing.T) {
	b := New("m")
	b.AddMaster(&scriptMaster{name: "m0"})
	b.AddExternalMaster("m1")
	b.AddMaster(&scriptMaster{name: "m2"})
	if got := b.LocalReqMask(); got != 0b101 {
		t.Fatalf("local req mask = %03b", got)
	}
	if !b.MasterLocal(0) || b.MasterLocal(1) || !b.MasterLocal(2) {
		t.Fatal("master locality wrong")
	}
	b.MapExternalSlave("x", Region{0, 0x100})
	if b.SlaveLocal(0) {
		t.Fatal("external slave reported local")
	}
	if b.LocalSplitMask() != 0 {
		t.Fatal("no split sources -> no split mask")
	}
}
