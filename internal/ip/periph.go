package ip

import (
	"fmt"
	"math"

	"coemu/internal/amba"
	"coemu/internal/bus"
)

// Register offsets of the IRQPeriph register file.
const (
	// PeriphCtrl starts a countdown: writing N raises the interrupt
	// line after N cycles (N=0 raises it immediately).
	PeriphCtrl amba.Addr = 0x0
	// PeriphStatus reads 1 while the interrupt is pending; reading it
	// acknowledges and clears the interrupt.
	PeriphStatus amba.Addr = 0x4
	// PeriphScratch is a plain read/write register.
	PeriphScratch amba.Addr = 0x8
	// PeriphCount reads the number of interrupts raised so far.
	PeriphCount amba.Addr = 0xC
)

// IRQPeriph is a register-file slave with a countdown timer that raises
// an interrupt line. Interrupts are the paper's example (§3, end) of a
// non-bus signal crossing the domain split: when the peripheral sits in
// one domain and the interrupt consumer in the other, the IRQ bit rides
// the MSABS exchange and is subject to prediction like everything else.
type IRQPeriph struct {
	name string
	line uint32 // bitmask of the IRQ line this peripheral owns

	countdown int64 // -1 idle
	pending   bool
	scratch   amba.Word
	raised    int64
	waitLeft  int
}

var (
	_ bus.Slave     = (*IRQPeriph)(nil)
	_ bus.IRQSource = (*IRQPeriph)(nil)
)

// NewIRQPeriph creates a peripheral owning the given IRQ line bit.
func NewIRQPeriph(name string, line uint32) *IRQPeriph {
	return &IRQPeriph{name: name, line: line, countdown: -1, waitLeft: -1}
}

// Name implements bus.Slave.
func (p *IRQPeriph) Name() string { return p.name }

// IRQ implements bus.IRQSource.
func (p *IRQPeriph) IRQ() uint32 {
	if p.pending {
		return p.line
	}
	return 0
}

// Raised returns the number of interrupts raised so far.
func (p *IRQPeriph) Raised() int64 { return p.raised }

// Tick implements sim.Clocked: the countdown runs on the target clock.
func (p *IRQPeriph) Tick(int64) {
	if p.countdown < 0 {
		return
	}
	if p.countdown == 0 {
		p.pending = true
		p.raised++
		p.countdown = -1
		return
	}
	p.countdown--
}

// QuiescentFor implements sim.Quiescible: with no countdown armed the
// peripheral ticks forever without visible effect; an armed countdown
// of c permits c pure decrements before the tick that raises the
// interrupt line.
func (p *IRQPeriph) QuiescentFor() int64 {
	if p.countdown < 0 {
		return math.MaxInt64
	}
	return p.countdown
}

// SkipQuiescent implements sim.Quiescible: n ticks collapse to one
// countdown subtraction. Callers keep n <= QuiescentFor().
func (p *IRQPeriph) SkipQuiescent(n int64) {
	if p.countdown >= 0 {
		p.countdown -= n
	}
}

// Respond implements bus.Slave. Register access costs one wait state,
// giving the peripheral a distinct (but deterministic) timing profile.
func (p *IRQPeriph) Respond(ap amba.AddrPhase) amba.SlaveReply {
	if p.waitLeft < 0 {
		p.waitLeft = 1
	}
	if p.waitLeft > 0 {
		p.waitLeft--
		return amba.SlaveReply{Ready: false, Resp: amba.RespOkay}
	}
	reply := amba.SlaveReply{Ready: true, Resp: amba.RespOkay}
	if ap.Write {
		return reply
	}
	var v amba.Word
	switch ap.Addr & 0xF {
	case PeriphStatus:
		if p.pending {
			v = 1
		}
		p.pending = false // read-to-clear
	case PeriphScratch:
		v = p.scratch
	case PeriphCount:
		v = amba.Word(p.raised)
	}
	reply.RData = ExtractLanes(v<<laneShift(ap.Addr, ap.Size), ap.Addr, ap.Size)
	return reply
}

// WriteCommit implements bus.Slave: register writes land at the edge.
func (p *IRQPeriph) WriteCommit(ap amba.AddrPhase, wdata amba.Word) {
	v := ExtractLanes(wdata, ap.Addr, ap.Size) >> laneShift(ap.Addr, ap.Size)
	switch ap.Addr & 0xF {
	case PeriphCtrl:
		p.countdown = int64(v)
	case PeriphScratch:
		p.scratch = v
	default:
		// Writes to read-only registers are ignored.
	}
}

// Commit implements bus.Slave.
func (p *IRQPeriph) Commit(ready bool) {
	if ready {
		p.waitLeft = -1
	}
}

// periphSnap freezes an IRQPeriph.
type periphSnap struct {
	Countdown int64
	Pending   bool
	Scratch   amba.Word
	Raised    int64
	WaitLeft  int
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a peripheral.
func (p *IRQPeriph) SaveInto(prev any) any {
	s, ok := prev.(*periphSnap)
	if !ok {
		s = new(periphSnap)
	}
	*s = periphSnap{Countdown: p.countdown, Pending: p.pending, Scratch: p.scratch, Raised: p.raised, WaitLeft: p.waitLeft}
	return s
}

// Restore implements rollback.Snapshotter.
func (p *IRQPeriph) Restore(v any) {
	s, ok := v.(*periphSnap)
	if !ok {
		panic(fmt.Sprintf("ip: periph %s: bad snapshot %T", p.name, v))
	}
	p.countdown = s.Countdown
	p.pending = s.Pending
	p.scratch = s.Scratch
	p.raised = s.Raised
	p.waitLeft = s.WaitLeft
}
