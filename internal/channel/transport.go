package channel

import (
	"errors"
	"fmt"

	"coemu/internal/amba"
)

// ErrChannelDown reports that a transport could not produce a packet:
// the in-memory queue was empty where the engine's protocol guarantees
// a packet, or a remote peer stopped answering within the receive
// timeout. Engine call sites propagate it as a typed run failure
// instead of blocking forever on a dead peer.
var ErrChannelDown = errors.New("channel: transport down")

// Transport moves materialized wire packets between the two
// verification domains. It is the physical layer under the engine's
// packed codec: implementations are the same-process Queues and a real
// TCP socket (package tcpchan), with FaultEndpoint wrapping either for
// seeded fault injection. The engine builds packets only when it has a
// Transport; without one it takes the accounting path.
//
// Transports carry bits only — they never touch the virtual-clock
// ledger or channel Stats. The engine charges every access explicitly
// through Channel.Account before handing the packet to the transport,
// so the modeled economics are bit-identical across implementations.
//
// Ownership: the caller may reuse its payload slice once Send returns
// (the transport copies or encodes), and a slice returned by Recv
// belongs to the caller until handed back via Release.
type Transport interface {
	// Send ships one packet in direction d.
	Send(d Dir, payload []amba.Word) error
	// Recv returns the oldest undelivered packet in direction d, or an
	// error wrapping ErrChannelDown when none can be produced.
	Recv(d Dir) ([]amba.Word, error)
	// Release recycles a packet obtained from Recv.
	Release(pkt []amba.Word)
	// Pending reports how many packets are queued for delivery in
	// direction d on this endpoint.
	Pending(d Dir) int
	// Close releases transport resources. Queues treats it as a no-op.
	Close() error
}

// Queues is the in-memory packet transport: a pair of FIFO queues with
// a shared buffer free-list. It is the in-process transport for the
// wire-codec path and the default inner transport of FaultEndpoint.
// Like Channel it is single-threaded by design — the engine
// interleaves the domains deterministically.
type Queues struct {
	queues [2]queue
	free   [][]amba.Word
}

// queue is a FIFO of packets. Dequeuing advances head instead of
// reslicing so the backing array is reused once the queue drains
// (reslicing q[1:] forever walks the buffer forward and forces append
// to reallocate).
type queue struct {
	pkts [][]amba.Word
	head int
}

func (q *queue) push(pkt []amba.Word) {
	q.pkts = append(q.pkts, pkt)
}

// pop removes and returns the oldest packet, or (nil, false) when the
// queue is empty. The nil-out keeps drained buffers collectable.
func (q *queue) pop() ([]amba.Word, bool) {
	if q.head >= len(q.pkts) {
		return nil, false
	}
	pkt := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return pkt, true
}

func (q *queue) len() int { return len(q.pkts) - q.head }

// NewQueues creates an empty in-memory transport.
func NewQueues() *Queues {
	return &Queues{}
}

// Send copies payload into a pooled buffer and enqueues it. It never
// fails.
func (t *Queues) Send(d Dir, payload []amba.Word) error {
	var pkt []amba.Word
	if n := len(t.free); n > 0 {
		pkt = t.free[n-1][:0]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	pkt = append(pkt, payload...)
	if pkt == nil {
		pkt = []amba.Word{} // keep zero-length packets non-nil
	}
	t.queues[d].push(pkt)
	return nil
}

// Recv dequeues the oldest packet in direction d. An empty queue
// returns an error wrapping ErrChannelDown: with both endpoints in one
// process there is no peer to wait for, so a missing packet is a
// protocol violation, surfaced immediately instead of blocking.
func (t *Queues) Recv(d Dir) ([]amba.Word, error) {
	pkt, ok := t.queues[d].pop()
	if !ok {
		return nil, fmt.Errorf("channel: recv on empty %v queue: %w", d, ErrChannelDown)
	}
	return pkt, nil
}

// Release returns a packet obtained from Recv to the free-list. The
// caller must not touch the slice afterwards: the next Send will
// overwrite it.
func (t *Queues) Release(pkt []amba.Word) {
	if cap(pkt) == 0 {
		return
	}
	t.free = append(t.free, pkt)
}

// Pending returns the number of queued packets in direction d.
func (t *Queues) Pending(d Dir) int { return t.queues[d].len() }

// Close is a no-op for the in-memory transport.
func (t *Queues) Close() error { return nil }
