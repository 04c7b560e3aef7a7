// Package channel implements the simulator–accelerator channel: an
// accountant that charges every access to the virtual clock with the
// startup + per-word cost structure measured in the paper, and the
// Transport interface that carries packets when the engine builds them
// (in-memory Queues, and a TCP socket in package tcpchan).
//
// The channel is the scarce resource of the whole system. Conventional
// co-emulation performs two accesses per target cycle (one transfer each
// direction); the prediction packetizing scheme collapses dozens of
// per-cycle transfers into one burst access per transition. All of that
// economics lives here, so the Stats this package collects (accesses,
// words, per-direction histograms) are primary experimental outputs.
package channel

import (
	"coemu/internal/device"
	"coemu/internal/vclock"
)

// Dir aliases device.Dir for callers that only import channel.
type Dir = device.Dir

// Directions re-exported for convenience.
const (
	SimToAcc = device.SimToAcc
	AccToSim = device.AccToSim
)

// Stats aggregates channel usage for one run.
type Stats struct {
	// Accesses counts, per direction, the channel accesses that paid
	// the stack's startup overhead.
	Accesses [2]int64
	// Words counts, per direction, every payload word charged: those of
	// accesses and those carried on another access (Carry).
	Words [2]int64
	// SizeHist counts accesses by payload size bucket: <=1, <=2, <=5,
	// <=16, <=64, >64 words — chosen so the paper's "does not exceed
	// five words" observation is directly visible. Carried words start
	// no access, so they have no bucket.
	SizeHist [2][6]int64
}

// bucket classifies a payload size into a histogram bucket.
func bucket(words int) int {
	switch {
	case words <= 1:
		return 0
	case words <= 2:
		return 1
	case words <= 5:
		return 2
	case words <= 16:
		return 3
	case words <= 64:
		return 4
	default:
		return 5
	}
}

// BucketLabels returns the histogram bucket labels in order.
func BucketLabels() []string {
	return []string{"<=1", "<=2", "<=5", "<=16", "<=64", ">64"}
}

// TotalAccesses returns the access count summed over both directions.
func (s *Stats) TotalAccesses() int64 { return s.Accesses[0] + s.Accesses[1] }

// TotalWords returns the word count summed over both directions.
func (s *Stats) TotalWords() int64 { return s.Words[0] + s.Words[1] }

// Channel is the cost accountant of the link between the two
// verification domains: it charges each access (startup plus payload)
// and each carried payload (words only) to the ledger and collects
// Stats, and moves no packets — a Transport does that. It is
// deliberately synchronous and single-threaded: the engine interleaves
// the domains deterministically, and the channel's job is bookkeeping,
// not concurrency.
type Channel struct {
	stack  device.Stack
	ledger *vclock.Ledger
	stats  Stats
}

// New creates a channel over the given device stack, charging access
// costs to ledger.
func New(stack device.Stack, ledger *vclock.Ledger) *Channel {
	if ledger == nil {
		panic("channel: nil ledger")
	}
	return &Channel{stack: stack, ledger: ledger}
}

// Stats returns a copy of the usage statistics.
func (c *Channel) Stats() Stats { return c.stats }

// Account charges one access in direction d with a payload of the
// given size: startup + per-word cost to the ledger, plus the access
// count, word count and size histogram. Zero-length accesses still pay
// the startup overhead, exactly like a real doorbell access. The
// engine charges every access here whether or not a transport carries
// the packet, so the modeled economics never depend on the transport.
func (c *Channel) Account(d Dir, words int) {
	c.AccountN(d, words, 1)
}

// AccountN charges n identical accesses of the given payload size in
// one call — the batch counterpart of Account used by the engine's
// predicted-quiescence cycle batching. Accounting is bit-identical to
// n sequential Account calls.
func (c *Channel) AccountN(d Dir, words int, n int64) {
	cost := c.stack.AccessCost(d, words)
	c.ledger.ChargeN(vclock.Channel, cost, n)
	c.stats.Accesses[d] += n
	c.stats.Words[d] += n * int64(words)
	c.stats.SizeHist[d][bucket(words)] += n
}

// Carry charges words of payload in direction d that ride on another
// access instead of starting one: the per-word cost only, no startup.
// The words count in Stats.Words; Accesses and SizeHist do not move.
// The engine carries a transition's success report this way, the rule
// the paper's calibrated model prices (ARCHITECTURE.md, Calibration).
func (c *Channel) Carry(d Dir, words int) {
	c.ledger.Charge(vclock.Channel, c.stack.WordCost(d, words))
	c.stats.Words[d] += int64(words)
}
