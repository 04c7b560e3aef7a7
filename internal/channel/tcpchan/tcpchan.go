// Package tcpchan carries the engine's packed wire packets between two
// processes over TCP, so the simulator and accelerator domains can run
// on separate hosts while producing bit-identical reports.
//
// # Mirrored lockstep
//
// Rather than teach the engine a client/server split, both processes
// run the full deterministic engine on the identical compiled spec,
// and the transport gives each side authority over one direction:
//
//   - The simulator-role endpoint ships SimToAcc packets over the
//     socket; its AccToSim sends are suppressed (the peer's mirror
//     produces the identical packet locally and ships it the other
//     way).
//   - Every authoritative send is also echoed into a local queue, so
//     the sender's own engine receives it exactly as the in-process
//     transports would deliver it.
//   - Receives in the peer-authoritative direction block on the
//     socket, bounded by Options.RecvTimeout, and fail with
//     channel.ErrChannelDown when the peer stays silent.
//
// Divergence between the mirrors cannot go unnoticed: committed
// remote values genuinely cross the wire, so any drift trips the
// engine's conservative-cycle merge check, a codec unpack error, or
// the end-of-run report exchange (ExchangeSum).
//
// # Framing and recovery
//
// Frames travel on a length-prefixed byte stream, each with a sequence
// number and a 32-bit FNV-1a checksum over its body. Each endpoint
// keeps a retransmission window of unacknowledged authoritative
// frames, and cumulative acks piggyback on data frames.
//
// TCP delivers a live connection's bytes in order, without loss or
// duplication, so reconnecting is the one recovery path. A receiver
// accepts exactly the next sequence: a frame failing its checksum, a
// data payload that is not whole words, a sequence gap or a length
// prefix out of range kills the connection. A dead connection is healed
// by redial (client) or re-accept (server) with a resume handshake
// exchanging next-expected sequences, and each side replays its window
// from the peer's position — the invariant being that a frame leaves
// the window only once the peer has acknowledged it, so a reconnect can
// always resume exactly where the stream broke. A frame below the next
// sequence is dropped as a copy of one already delivered: a reader can
// still deliver a buffered frame of the old connection after the resume
// handshake announced its position, and the peer replays that frame.
// Both healing paths are bounded: the dialer by its Redial budget, the
// acceptor by an equivalent re-accept budget, after which the transport
// goes down instead of waiting forever for a peer that crashed.
//
// The end-of-run digest exchange is acknowledged. A transport that sent
// its digest stays up in Close, for at most RecvTimeout, until the peer
// confirms receipt. A peer whose connection died during the exchange
// can then still resume and fetch the digest.
//
// # Threading model
//
// One goroutine at a time reads the socket, and while the engine runs
// it is the engine's own. Recv in the peer direction and ExchangeSum
// read and handle frames on the calling goroutine until their packet or
// sum has arrived. Every frame kind (data, ack, sum, sum ack, bye, and
// frames failing their checksum) goes through one handler under the
// transport mutex, and delivered packets wait in a FIFO under that
// mutex. A receive therefore costs no goroutine hop and no timer.
//
// Each endpoint runs one background keeper goroutine on one ticker,
// whose period is keeperTick. On every tick the keeper:
//
//   - times a blocked receive: past the receive timeout it fails the
//     receive, kicking the engine out of its blocked read by setting
//     the read deadline to the past;
//   - reads the socket itself when the engine has not received for a
//     whole tick, so acks, sums and byes keep being handled, and a dead
//     connection noticed, for an idle or send-only engine. An engine
//     entering a receive kicks this read the same way and takes the
//     socket over;
//   - heals a dead connection by redial or bounded re-accept;
//   - refreshes the write deadline.
//
// A kick can land mid-frame. The frame reader keeps the partial frame
// in its buffer, so the next reader resumes it where the last one
// stopped, with no reconnect.
package tcpchan

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
	"coemu/internal/trace"
)

// Role identifies which domain this endpoint's process hosts, and
// therefore which channel direction it has send authority over.
type Role uint8

// Endpoint roles.
const (
	// RoleSim hosts the simulator domain: authoritative for SimToAcc.
	RoleSim Role = iota
	// RoleAcc hosts the accelerator domain: authoritative for AccToSim.
	RoleAcc
)

// String returns the role's wire name.
func (r Role) String() string {
	if r == RoleAcc {
		return "acc"
	}
	return "sim"
}

// dir returns the direction this role is authoritative for.
func (r Role) dir() channel.Dir {
	if r == RoleAcc {
		return channel.AccToSim
	}
	return channel.SimToAcc
}

// peerDir returns the direction the peer is authoritative for.
func (r Role) peerDir() channel.Dir {
	if r == RoleAcc {
		return channel.SimToAcc
	}
	return channel.AccToSim
}

// Wire protocol constants.
const (
	protocolMagic   = "coemu-tcpchan"
	protocolVersion = 3

	kindHello   = 1
	kindHelloOK = 2
	kindData    = 3
	kindAck     = 5
	kindSum     = 8
	// kindBye announces a deliberate shutdown. It is what separates a
	// clean teardown from a crash: a reader that saw a bye goes down
	// immediately instead of burning redial attempts against a peer
	// that is gone on purpose.
	kindBye = 9
	// kindSumAck confirms receipt of the peer's sum frame. A transport
	// that sent a sum stays up in Close until it is confirmed, so a peer
	// whose connection died during the exchange can resume and fetch it.
	kindSumAck = 10

	// frameHeadBytes is the fixed frame body overhead after the length
	// prefix: kind, dir, two reserved bytes, seq, ack.
	frameHeadBytes = 12
	// frameSumBytes trails the payload.
	frameSumBytes = 4
	// maxFrameBytes bounds a frame body; a longer length prefix means
	// the stream is damaged and kills the connection.
	maxFrameBytes = 16 << 20
	// readBufBytes is the frame reader's initial buffer; it grows to fit
	// a larger frame.
	readBufBytes = 64 << 10

	// ackEvery bounds how many delivered frames may go unacknowledged
	// before a standalone ack is emitted (piggybacked acks usually get
	// there first).
	ackEvery = 64
)

// Defaults for zero Options fields.
const (
	DefaultDialTimeout  = 5 * time.Second
	DefaultRecvTimeout  = 10 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultRedial       = 8
	DefaultRedialWait   = 50 * time.Millisecond
)

// keeperTick is the keeper's period (see the package doc).
const keeperTick = 25 * time.Millisecond

// windowMax bounds the retransmission window; the engine's exchange
// protocol keeps at most a handful of frames in flight, so hitting the
// bound means the peer stopped acknowledging long ago.
const windowMax = 8192

// kickDeadline is a read deadline in the past: setting it makes a
// blocked read on the connection return at once.
var kickDeadline = time.Unix(1, 0)

// Options configures one endpoint.
type Options struct {
	// Role selects this endpoint's authoritative direction.
	Role Role
	// Hash is the canonical spec hash announced in the handshake; the
	// accepting side verifies it (via VerifyMeta) so two processes can
	// never co-emulate different systems.
	Hash string
	// Meta is an opaque handshake blob from dialer to acceptor —
	// remote.Run ships the full spec JSON here, which is what lets the
	// server run spec-agnostic.
	Meta []byte
	// VerifyMeta, on the accepting side, validates the dialer's Meta
	// against its announced Hash before the session is admitted.
	VerifyMeta func(meta []byte, hash string) error

	DialTimeout  time.Duration
	RecvTimeout  time.Duration
	WriteTimeout time.Duration
	// Redial bounds reconnect attempts after a connection death
	// (dialer side); RedialWait is the linear backoff step between
	// attempts.
	Redial     int
	RedialWait time.Duration

	// tick overrides keeperTick, for in-package tests.
	tick time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.RecvTimeout <= 0 {
		o.RecvTimeout = DefaultRecvTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.Redial <= 0 {
		o.Redial = DefaultRedial
	}
	if o.RedialWait <= 0 {
		o.RedialWait = DefaultRedialWait
	}
	if o.tick <= 0 {
		o.tick = keeperTick
	}
	return o
}

// reacceptBudget is how long the acceptor side waits for a crashed
// peer to resume before declaring the session dead — the mirror of the
// dialer's worst case of Redial attempts (each bounded by DialTimeout)
// with linear backoff between them.
func reacceptBudget(o Options) time.Duration {
	b := time.Duration(o.Redial) * o.DialTimeout
	for i := 1; i < o.Redial; i++ {
		b += time.Duration(i) * o.RedialWait
	}
	return b
}

// Stats summarizes one endpoint's wire activity.
type Stats struct {
	Sent          int64 // authoritative data frames first-sent
	Received      int64 // in-order data frames delivered
	Dups          int64 // copies of delivered frames dropped
	Gaps          int64 // connections killed by a sequence gap
	CorruptFrames int64 // connections killed by a damaged frame
	Retransmits   int64 // frames replayed on a resumed connection
	Reconnects    int64 // connection deaths healed
}

// winFrame is one unacknowledged authoritative frame.
type winFrame struct {
	seq     uint32
	payload []amba.Word
}

// want is what a blocked engine call waits for.
type want uint8

const (
	wantPacket want = iota // a peer-direction packet (Recv)
	wantSum                // the peer's report digest (ExchangeSum)
	wantSumAck             // the peer's receipt of our digest (Close)
)

// helloMsg is the JSON handshake exchanged on connect and resume.
type helloMsg struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Role    string `json:"role"`
	Hash    string `json:"hash"`
	Meta    []byte `json:"meta,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
	// Expect is the next data sequence number the sender of this
	// message is waiting for; on resume the receiver retransmits its
	// window from here.
	Expect uint32 `json:"expect,omitempty"`
}

// Transport is one endpoint of the mirrored TCP channel. It implements
// channel.Transport. The engine thread calls Send/Recv/Release and
// reads the socket itself while it waits; the keeper goroutine covers
// for it in between (see the package doc). mu orders the two.
type Transport struct {
	role Role
	opts Options
	hash string

	// q holds the packets delivered to the local engine: authoritative
	// sends echoed in their direction, peer packets in the other. Guarded
	// by mu.
	q *channel.Queues

	// stop is closed by Close; keeperDone when the keeper exits.
	stop       chan struct{}
	keeperDone chan struct{}
	// wake prompts the keeper to heal a connection found dead between
	// ticks.
	wake chan struct{}

	// Dialer-side reconnect target; acceptor-side listener to
	// re-accept on.
	addr string
	ln   *Listener

	mu sync.Mutex
	// cond announces changes to reading, dead, down, closed and
	// timedOut to an engine waiting for the socket.
	cond    *sync.Cond
	conn    net.Conn
	fr      *frameReader // conn's frame reader
	dialing net.Conn     // in-flight redial, closable by Close
	dead    bool         // conn present but known broken
	closed  bool
	// down means no packet will ever arrive again: the peer said bye,
	// or healing ran out of budget.
	down bool
	// reading is set while a goroutine holds the socket for reading.
	reading bool
	// deadlineSet records a read deadline left on conn by a kick or by
	// the keeper's idle read; the engine clears it before reading.
	deadlineSet bool

	// The engine's receive wait, which the keeper watches: recvs counts
	// peer-direction receive calls (seenRecvs is its value at the last
	// tick); waitSeq numbers waits (watchSeq is the one the keeper last
	// saw).
	recvs, seenRecvs  uint64
	waiting           bool
	waitSeq, watchSeq uint64
	waitLimit         time.Duration
	timedOut          bool
	waitStart         time.Time

	gen      int64 // connection generation, for trace/debug
	sendSeq  uint32
	recvNext uint32 // next expected peer data seq
	// rxWords is the scratch buffer a data frame's payload is decoded
	// into on its way into q.
	rxWords []amba.Word
	// pendingSum is this side's ExchangeSum blob; sum frames live
	// outside the data window, so a reconnect re-sends it explicitly.
	pendingSum []byte
	// peerSum is the peer's blob, kept from its first arrival.
	peerSum []byte
	// sumAcked records that the peer confirmed it holds pendingSum.
	sumAcked bool
	window   []winFrame
	wfree    [][]amba.Word
	unacked  int // delivered frames since last ack we sent
	wbuf     []byte
	st       Stats
	trc      *trace.Recorder
}

func newTransport(role Role, opts Options, hash string) *Transport {
	t := &Transport{
		role:       role,
		opts:       opts,
		hash:       hash,
		q:          channel.NewQueues(),
		stop:       make(chan struct{}),
		keeperDone: make(chan struct{}),
		wake:       make(chan struct{}, 1),
		recvNext:   1,
		trc:        trace.NewRecorder(4096),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// start installs the first connection and launches the keeper.
func (t *Transport) start(conn net.Conn) {
	t.conn, t.fr = conn, newFrameReader(conn)
	conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	t.traceLocked(trace.Event{Kind: trace.EvTransportConnect, Domain: uint8(t.role)})
	go t.keep()
}

// Dial connects to a listening endpoint, performs the handshake
// (announcing o.Role, o.Hash and shipping o.Meta), and returns the
// ready transport.
func Dial(addr string, o Options) (*Transport, error) {
	o = o.withDefaults()
	t := newTransport(o.Role, o, o.Hash)
	t.addr = addr
	conn, _, err := t.dialOnce(false)
	if err != nil {
		return nil, err
	}
	t.start(conn)
	return t, nil
}

// dialOnce dials and handshakes one connection, returning it with the
// peer's next expected sequence. With resume set it announces the
// transport's current receive position; the caller holds no lock.
func (t *Transport) dialOnce(resume bool) (net.Conn, uint32, error) {
	t.mu.Lock()
	expect := t.recvNext
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", t.addr, t.opts.DialTimeout)
	if err != nil {
		return nil, 0, fmt.Errorf("tcpchan: dial %s: %w", t.addr, err)
	}
	// Expose the half-open connection so a concurrent Close can cut the
	// handshake short instead of waiting out its deadline.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, 0, fmt.Errorf("tcpchan: transport closed during redial")
	}
	t.dialing = conn
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.dialing = nil
		t.mu.Unlock()
	}()
	h := helloMsg{
		Magic: protocolMagic, Version: protocolVersion,
		Role: t.role.String(), Hash: t.hash,
		Resume: resume, Expect: expect,
	}
	if !resume {
		h.Meta = t.opts.Meta
	}
	ok, err := handshake(conn, h, t.opts.DialTimeout)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	if ok.Role == t.role.String() {
		conn.Close()
		return nil, 0, fmt.Errorf("tcpchan: peer claims our role %q (two %ss on one link)", ok.Role, ok.Role)
	}
	if t.hash != "" && ok.Hash != t.hash {
		conn.Close()
		return nil, 0, fmt.Errorf("tcpchan: spec hash mismatch: ours %s, peer %s", t.hash, ok.Hash)
	}
	return conn, ok.Expect, nil
}

// handshake writes h and reads the peer's reply frame within timeout.
// It reads no byte past the reply: a resuming acceptor retransmits
// right behind it, and those frames belong to the transport's reader.
func handshake(conn net.Conn, h helloMsg, timeout time.Duration) (helloMsg, error) {
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	blob, err := json.Marshal(&h)
	if err != nil {
		return helloMsg{}, err
	}
	frame := appendFrame(nil, kindHello, 0, 0, 0, blob)
	if _, err := conn.Write(frame); err != nil {
		return helloMsg{}, fmt.Errorf("tcpchan: handshake write: %w", err)
	}
	body, err := (&frameReader{src: conn, exact: true}).next()
	if err != nil {
		return helloMsg{}, fmt.Errorf("tcpchan: handshake read: %w", err)
	}
	k, _, _, _, payload := decodeFrame(body)
	if k != kindHelloOK && k != kindHello {
		return helloMsg{}, fmt.Errorf("tcpchan: handshake got frame kind %d", k)
	}
	var reply helloMsg
	if err := json.Unmarshal(payload, &reply); err != nil {
		return helloMsg{}, fmt.Errorf("tcpchan: handshake decode: %w", err)
	}
	if reply.Magic != protocolMagic || reply.Version != protocolVersion {
		return helloMsg{}, fmt.Errorf("tcpchan: peer speaks %q v%d, want %q v%d",
			reply.Magic, reply.Version, protocolMagic, protocolVersion)
	}
	return reply, nil
}

// Listener accepts tcpchan sessions. One session is active at a time:
// Accept admits a fresh handshake, and while that session runs, its
// transport re-accepts resumed connections off the same listener.
type Listener struct {
	ln net.Listener
}

// Listen opens a TCP listener for tcpchan sessions.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpchan: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound listener address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting connections.
func (l *Listener) Close() error { return l.ln.Close() }

// Accept waits for a fresh session handshake and returns the ready
// transport plus the dialer's Meta blob. Connections that fail the
// handshake (bad magic, role clash, rejected meta, stale resumes) are
// dropped and accepting continues.
func (l *Listener) Accept(o Options) (*Transport, []byte, error) {
	o = o.withDefaults()
	conn, h, err := l.acceptConn(o)
	if err != nil {
		return nil, nil, err
	}
	t := newTransport(o.Role, o, h.Hash)
	t.ln = l
	t.start(conn)
	return t, h.Meta, nil
}

// deadlineListener is the optional accept-deadline capability
// (*net.TCPListener has it) that makes re-accept waits abortable.
type deadlineListener interface {
	SetDeadline(time.Time) error
}

// acceptConn accepts and handshakes fresh-session connections until
// one is admissible.
func (l *Listener) acceptConn(o Options) (net.Conn, helloMsg, error) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// A stale accept deadline left behind by a concurrent
				// resume wait (acceptResume); clear it and keep going.
				if dl, ok := l.ln.(deadlineListener); ok {
					dl.SetDeadline(time.Time{})
				}
				continue
			}
			return nil, helloMsg{}, fmt.Errorf("tcpchan: accept: %w", err)
		}
		h, ok := l.admit(conn, o, nil)
		if !ok {
			conn.Close()
			continue
		}
		return conn, h, nil
	}
}

// acceptResume re-accepts a resumed connection for t's broken session.
// Only resume hellos matching the session are admitted; fresh sessions
// are dropped until the next Accept. Unlike the fresh accept this wait
// must not wedge the process: it is chunked by listener deadlines so a
// concurrent Close aborts it promptly, and bounded
// by the re-accept budget so a peer that crashed without a bye takes
// the session down instead of squatting on the listener forever. Each
// chunk also runs the keeper's watch, so a blocked receive still times
// out on schedule.
func (l *Listener) acceptResume(t *Transport) (net.Conn, helloMsg, error) {
	deadline := time.Now().Add(reacceptBudget(t.opts))
	dl, chunked := l.ln.(deadlineListener)
	if chunked {
		defer dl.SetDeadline(time.Time{})
	}
	for {
		if !t.watch() {
			return nil, helloMsg{}, fmt.Errorf("tcpchan: transport closed during re-accept")
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil, helloMsg{}, fmt.Errorf("tcpchan: peer did not resume within %v", reacceptBudget(t.opts))
		}
		if chunked {
			step := deadline.Sub(now)
			if max := 4 * t.opts.RedialWait; step > max {
				step = max
			}
			dl.SetDeadline(now.Add(step))
		}
		conn, err := l.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return nil, helloMsg{}, fmt.Errorf("tcpchan: accept: %w", err)
		}
		h, ok := l.admit(conn, t.opts, t)
		if !ok {
			conn.Close()
			continue
		}
		return conn, h, nil
	}
}

// admit runs the accept-side handshake on one connection.
func (l *Listener) admit(conn net.Conn, o Options, resumeFor *Transport) (helloMsg, bool) {
	deadline := time.Now().Add(o.DialTimeout)
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	body, err := (&frameReader{src: conn, exact: true}).next()
	if err != nil {
		return helloMsg{}, false
	}
	k, _, _, _, payload := decodeFrame(body)
	if k != kindHello {
		return helloMsg{}, false
	}
	var h helloMsg
	if err := json.Unmarshal(payload, &h); err != nil {
		return helloMsg{}, false
	}
	if h.Magic != protocolMagic || h.Version != protocolVersion || h.Role == o.Role.String() {
		return helloMsg{}, false
	}
	var expect uint32 = 1
	if resumeFor != nil {
		if !h.Resume || h.Hash != resumeFor.hash {
			return helloMsg{}, false
		}
		resumeFor.mu.Lock()
		expect = resumeFor.recvNext
		resumeFor.mu.Unlock()
	} else {
		if h.Resume {
			return helloMsg{}, false
		}
		if o.VerifyMeta != nil {
			if err := o.VerifyMeta(h.Meta, h.Hash); err != nil {
				return helloMsg{}, false
			}
		}
	}
	reply := helloMsg{
		Magic: protocolMagic, Version: protocolVersion,
		Role: o.Role.String(), Hash: h.Hash, Expect: expect,
	}
	blob, err := json.Marshal(&reply)
	if err != nil {
		return helloMsg{}, false
	}
	if _, err := conn.Write(appendFrame(nil, kindHelloOK, 0, 0, 0, blob)); err != nil {
		return helloMsg{}, false
	}
	return h, true
}

// Send implements channel.Transport. Sends in the peer-authoritative
// direction are suppressed — the peer's mirrored engine produces the
// identical packet on its side — so the call is an intentional no-op,
// not an error. Authoritative sends are framed, recorded in the
// retransmission window, shipped, and echoed locally.
func (t *Transport) Send(d channel.Dir, payload []amba.Word) error {
	if d != t.role.dir() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("tcpchan: send on closed transport: %w", channel.ErrChannelDown)
	}
	if len(t.window) >= windowMax {
		return fmt.Errorf("tcpchan: %d unacknowledged frames (peer gone?): %w", windowMax, channel.ErrChannelDown)
	}
	t.sendSeq++
	seq := t.sendSeq
	var buf []amba.Word
	if n := len(t.wfree); n > 0 {
		buf = t.wfree[n-1][:0]
		t.wfree[n-1] = nil
		t.wfree = t.wfree[:n-1]
	}
	buf = append(buf, payload...)
	if buf == nil {
		buf = []amba.Word{}
	}
	t.window = append(t.window, winFrame{seq: seq, payload: buf})
	t.st.Sent++
	t.writeDataLocked(seq, buf)
	// Local echo: the engine on this side receives its own
	// contribution exactly as an in-process transport would deliver it.
	return t.q.Send(d, payload)
}

// writeDataLocked encodes and writes one data frame. A write failure
// marks the connection dead (the keeper heals it); the frame stays in
// the window either way.
func (t *Transport) writeDataLocked(seq uint32, payload []amba.Word) {
	t.wbuf = appendDataFrame(t.wbuf[:0], byte(t.role.dir()), seq, t.recvNext-1, payload)
	t.unacked = 0
	t.writeRawLocked(t.wbuf)
}

// writeCtrlLocked encodes and writes one control frame.
func (t *Transport) writeCtrlLocked(kind byte, seq, ack uint32, payload []byte) {
	t.wbuf = appendFrame(t.wbuf[:0], kind, 0, seq, ack, payload)
	t.writeRawLocked(t.wbuf)
}

// writeRawLocked ships pre-encoded bytes on the live connection, if
// any. The write deadline is the keeper's, refreshed every tick. Errors
// mark the connection dead and close it, which fails any blocked read
// and sends the keeper into its reconnect path.
func (t *Transport) writeRawLocked(b []byte) {
	if t.conn == nil || t.dead {
		return
	}
	if _, err := t.conn.Write(b); err != nil {
		t.markDeadLocked()
	}
}

// markDeadLocked closes a broken connection and wakes the keeper to
// heal it.
func (t *Transport) markDeadLocked() {
	t.dead = true
	t.conn.Close()
	select {
	case t.wake <- struct{}{}:
	default:
	}
	t.cond.Broadcast()
}

// Recv implements channel.Transport. The authoritative direction pops
// the local echo — empty means the engine broke its own exchange
// protocol, reported immediately. The peer direction reads the socket
// on the calling goroutine until a packet is delivered, up to
// RecvTimeout.
func (t *Transport) Recv(d channel.Dir) ([]amba.Word, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d != t.role.dir() {
		t.recvs++
		if err := t.awaitLocked(wantPacket, t.opts.RecvTimeout); err != nil {
			return nil, fmt.Errorf("tcpchan: recv %v: %w", d, err)
		}
	}
	return t.q.Recv(d)
}

// readyLocked reports whether what w waits for has arrived.
func (t *Transport) readyLocked(w want) bool {
	switch w {
	case wantSum:
		return t.peerSum != nil
	case wantSumAck:
		return t.sumAcked
	}
	return t.q.Pending(t.role.peerDir()) > 0
}

// awaitLocked reads and handles frames on the calling goroutine until
// what w waits for has arrived, the keeper declares the wait timed out
// after limit, or the transport goes down. An idle read by the keeper
// is kicked, and the engine takes the socket over once the keeper
// yields it.
func (t *Transport) awaitLocked(w want, limit time.Duration) error {
	if t.readyLocked(w) {
		return nil
	}
	t.waiting = true
	t.waitSeq++
	t.waitLimit, t.timedOut = limit, false
	defer func() { t.waiting = false }()
	if t.reading {
		t.kickLocked()
	}
	for !t.readyLocked(w) {
		switch {
		case t.closed || t.down:
			return fmt.Errorf("tcpchan: transport stopped: %w", channel.ErrChannelDown)
		case t.timedOut:
			return fmt.Errorf("timed out after %v: %w", limit, channel.ErrChannelDown)
		case t.reading || t.dead:
			// The keeper is yielding the socket or healing the
			// connection; either way it broadcasts when done.
			t.cond.Wait()
			continue
		}
		if t.deadlineSet {
			t.conn.SetReadDeadline(time.Time{})
			t.deadlineSet = false
		}
		t.readLocked()
	}
	return nil
}

// kickLocked makes a blocked read on the live connection return now.
func (t *Transport) kickLocked() {
	if t.conn != nil && !t.dead {
		t.conn.SetReadDeadline(kickDeadline)
		t.deadlineSet = true
	}
}

// readLocked holds the socket for one frame: it reads it with mu
// released and handles it under mu. It reports whether a frame was
// handled; a failed read is either a kick (the caller re-checks why it
// is reading) or a dead connection.
func (t *Transport) readLocked() bool {
	t.reading = true
	fr := t.fr
	t.mu.Unlock()
	body, err := fr.next()
	t.mu.Lock()
	t.reading = false
	if err != nil {
		if fr == t.fr && !t.dead && !t.closed && !errors.Is(err, os.ErrDeadlineExceeded) {
			if errors.Is(err, errFrameLength) {
				t.st.CorruptFrames++
			}
			t.markDeadLocked()
		}
		return false
	}
	t.handleFrameLocked(body)
	return true
}

// Release implements channel.Transport. Echo and receive buffers share
// the local queues' free-list.
func (t *Transport) Release(pkt []amba.Word) {
	t.mu.Lock()
	t.q.Release(pkt)
	t.mu.Unlock()
}

// Pending implements channel.Transport.
func (t *Transport) Pending(d channel.Dir) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.q.Pending(d)
}

// Close shuts the transport down: no reconnects, blocked receivers
// fail, the keeper exits. After a completed ExchangeSum it first waits,
// up to RecvTimeout, for the peer to confirm it holds this side's digest: the
// peer may have lost it with a connection that died at the end of the
// exchange, and can only resume and fetch it while this side is up.
func (t *Transport) Close() error {
	t.mu.Lock()
	if !t.closed && t.pendingSum != nil && t.peerSum != nil {
		t.awaitLocked(wantSumAck, t.opts.RecvTimeout) // best effort
	}
	alreadyClosed := t.closed
	t.closed = true
	if t.conn != nil && !t.dead {
		// Tell the peer this is deliberate so it goes down instead of
		// redialing a gone endpoint; the kernel flushes the bye with
		// the FIN.
		t.writeCtrlLocked(kindBye, 0, t.recvNext-1, nil)
	}
	if t.conn != nil {
		t.conn.Close()
	}
	if t.dialing != nil {
		t.dialing.Close()
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	if !alreadyClosed {
		close(t.stop)
		<-t.keeperDone
	}
	return nil
}

// ExchangeSum sends blob to the peer and returns the peer's blob — the
// end-of-run cross-check both mirrors use to compare canonical report
// digests. Symmetric: both sides call it.
func (t *Transport) ExchangeSum(blob []byte, timeout time.Duration) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recvs++
	// Sum frames live outside the data window, so keep the blob for
	// explicit re-send on reconnect — otherwise a connection that is
	// dead right now (write silently dropped) or dies in flight would
	// strand both mirrors in the exchange timeout.
	t.pendingSum = append([]byte(nil), blob...)
	t.sumAcked = false
	t.writeCtrlLocked(kindSum, 0, t.recvNext-1, t.pendingSum)
	if err := t.awaitLocked(wantSum, timeout); err != nil {
		return nil, fmt.Errorf("tcpchan: sum exchange: %w", err)
	}
	return t.peerSum, nil
}

// Stats returns a snapshot of the endpoint's wire counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// TraceEvents returns the transport's recorded trace events (connects,
// replays, reconnects). Event.Cycle carries the frame sequence
// position, not a target cycle.
func (t *Transport) TraceEvents() []trace.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trc.Events()
}

func (t *Transport) traceLocked(ev trace.Event) {
	ev.Cycle = int64(t.sendSeq)
	t.trc.Record(ev)
}

// ackWindowLocked drops window frames with seq <= ack, recycling their
// buffers.
func (t *Transport) ackWindowLocked(ack uint32) {
	i := 0
	for i < len(t.window) && t.window[i].seq <= ack {
		if cap(t.window[i].payload) > 0 {
			t.wfree = append(t.wfree, t.window[i].payload)
		}
		t.window[i] = winFrame{}
		i++
	}
	if i > 0 {
		t.window = append(t.window[:0], t.window[i:]...)
	}
}

// keep is the keeper goroutine: one ticker, plus a wake-up when a
// connection dies between ticks.
func (t *Transport) keep() {
	defer close(t.keeperDone)
	tk := time.NewTicker(t.opts.tick)
	defer tk.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-t.wake:
		case <-tk.C:
		}
		if !t.keepOnce() {
			return
		}
	}
}

// keepOnce runs one round of the keeper's duties. It reports false
// once the transport is closed or down for good.
func (t *Transport) keepOnce() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead && !t.closed && !t.down {
		t.mu.Unlock()
		healed := t.reestablish()
		t.mu.Lock()
		if !healed {
			// Permanently down: wake a blocked receiver.
			t.down = true
			t.cond.Broadcast()
		}
	}
	if t.closed || t.down {
		return false
	}
	now := time.Now()
	t.watchLocked(now)
	idle := !t.waiting && !t.reading && t.recvs == t.seenRecvs
	t.seenRecvs = t.recvs
	if idle && !t.dead {
		t.idleReadLocked(now)
	}
	return true
}

// watch runs watchLocked between healing attempts. It reports false
// once the transport is closed.
func (t *Transport) watch() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watchLocked(time.Now())
	return !t.closed
}

// watchLocked runs the keeper's timed duties: the timeout of a blocked
// engine wait, and the write deadline. A wait is timed from the first
// tick that sees it.
func (t *Transport) watchLocked(now time.Time) {
	if t.waiting {
		if t.watchSeq != t.waitSeq {
			t.watchSeq = t.waitSeq
			t.waitStart = now
		}
		if now.Sub(t.waitStart) >= t.waitLimit {
			t.timedOut = true
			if t.reading {
				t.kickLocked()
			}
			t.cond.Broadcast()
		}
	}
	if t.conn != nil && !t.dead {
		t.conn.SetWriteDeadline(now.Add(t.opts.WriteTimeout))
	}
}

// idleReadLocked reads the socket on the engine's behalf for at most
// one tick. It stops as soon as the engine waits to receive (the
// engine's arrival kicks the read), and hands the socket back.
func (t *Transport) idleReadLocked(now time.Time) {
	t.conn.SetReadDeadline(now.Add(t.opts.tick))
	t.deadlineSet = true
	for !t.waiting && !t.dead && !t.closed && !t.down && t.readLocked() {
	}
	t.cond.Broadcast()
}

// reestablish replaces a dead connection: the dialer side redials with
// a resume handshake, the acceptor side re-accepts a resume from its
// listener. On success the retransmission window is replayed from the
// peer's next expected sequence.
func (t *Transport) reestablish() bool {
	if t.ln != nil {
		conn, h, err := t.ln.acceptResume(t)
		if err != nil {
			return false
		}
		return t.adopt(conn, h.Expect)
	}
	for attempt := 0; attempt < t.opts.Redial; attempt++ {
		if attempt > 0 {
			select {
			case <-t.stop:
				return false
			case <-time.After(time.Duration(attempt) * t.opts.RedialWait):
			}
		}
		if !t.watch() {
			return false
		}
		conn, expect, err := t.dialOnce(true)
		if err != nil {
			continue
		}
		return t.adopt(conn, expect)
	}
	return false
}

// adopt installs a healed connection, drops the window frames the peer
// already has (everything before peerExpect) and replays the rest in
// order. It reports false, dropping conn, if the transport closed
// meanwhile.
func (t *Transport) adopt(conn net.Conn, peerExpect uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return false
	}
	t.ackWindowLocked(peerExpect - 1)
	t.conn.Close()
	t.conn, t.fr = conn, newFrameReader(conn)
	t.dead, t.deadlineSet = false, false
	conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	t.gen++
	t.st.Reconnects++
	t.traceLocked(trace.Event{Kind: trace.EvTransportReconnect, Domain: uint8(t.role), Arg: t.gen})
	t.retransmitLocked()
	if t.pendingSum != nil && !t.sumAcked {
		// The peer keeps the first copy and confirms every copy.
		t.writeCtrlLocked(kindSum, 0, t.recvNext-1, t.pendingSum)
	}
	t.cond.Broadcast()
	return true
}

// retransmitLocked replays the whole window in order.
func (t *Transport) retransmitLocked() {
	for _, wf := range t.window {
		t.wbuf = appendDataFrame(t.wbuf[:0], byte(t.role.dir()), wf.seq, t.recvNext-1, wf.payload)
		t.writeRawLocked(t.wbuf)
	}
	if n := int64(len(t.window)); n > 0 {
		t.st.Retransmits += n
		t.traceLocked(trace.Event{Kind: trace.EvTransportRetransmit, Domain: uint8(t.role), N: n})
	}
}

// handleFrameLocked runs the protocol for one received frame, whoever
// read it.
func (t *Transport) handleFrameLocked(body []byte) {
	kind, _, seq, ack, payload := decodeFrame(body)
	switch kind {
	case kindData:
		t.handleDataLocked(seq, ack, payload)
	case kindAck:
		t.ackWindowLocked(ack)
	case kindSum:
		if t.peerSum == nil {
			t.peerSum = append([]byte{}, payload...)
		}
		// Confirm every copy: the first confirmation may have died with
		// a connection.
		t.writeCtrlLocked(kindSumAck, 0, t.recvNext-1, nil)
	case kindSumAck:
		t.sumAcked = true
	case kindBye:
		// Deliberate peer shutdown: the link is down for good, not
		// broken. Wake a blocked receiver instead of reconnecting.
		t.down, t.dead = true, true
		t.conn.Close()
		t.cond.Broadcast()
	case frameCorrupt:
		// The stream framing held but the checksum failed: the stream
		// is untrusted from here, and the resume replays what is lost.
		t.st.CorruptFrames++
		t.markDeadLocked()
	default:
		// Unknown control frame: ignore (forward compatibility).
	}
}

// handleDataLocked runs the receive side of the ARQ for one data
// frame, queueing the next in-order payload for the engine. A damaged
// payload or a gap kills the connection.
func (t *Transport) handleDataLocked(seq, ack uint32, payload []byte) {
	if len(payload)%amba.WordBytes != 0 {
		t.st.CorruptFrames++
		t.markDeadLocked()
		return
	}
	t.ackWindowLocked(ack)
	switch {
	case seq < t.recvNext:
		t.st.Dups++
		return
	case seq > t.recvNext:
		t.st.Gaps++
		t.markDeadLocked()
		return
	}
	t.recvNext++
	t.st.Received++
	t.unacked++
	if t.unacked >= ackEvery {
		t.unacked = 0
		t.writeCtrlLocked(kindAck, 0, t.recvNext-1, nil)
	}
	t.rxWords = t.rxWords[:0]
	for i := 0; i < len(payload); i += amba.WordBytes {
		t.rxWords = append(t.rxWords, amba.GetWord(payload[i:]))
	}
	t.q.Send(t.role.peerDir(), t.rxWords)
}

// frameCorrupt is the in-band kind decodeFrame returns for a frame
// whose stream framing held but whose checksum failed.
const frameCorrupt = 0xFF

// errFrameLength is the frame reader's error for a length prefix
// outside the protocol bounds.
var errFrameLength = errors.New("tcpchan: frame length out of range")

// appendFrame encodes one frame with a byte payload:
//
//	u32 length | u8 kind | u8 dir | u16 reserved | u32 seq | u32 ack |
//	payload bytes | u32 sum
//
// sum is 32-bit FNV-1a over the body, kind through payload.
func appendFrame(dst []byte, kind, dir byte, seq, ack uint32, payload []byte) []byte {
	body := frameHeadBytes + len(payload) + frameSumBytes
	dst = le32(dst, uint32(body))
	start := len(dst)
	dst = append(dst, kind, dir, 0, 0)
	dst = le32(dst, seq)
	dst = le32(dst, ack)
	dst = append(dst, payload...)
	return le32(dst, byteSum(dst[start:]))
}

// appendDataFrame is appendFrame for a word payload, avoiding an
// intermediate byte slice.
func appendDataFrame(dst []byte, dir byte, seq, ack uint32, payload []amba.Word) []byte {
	body := frameHeadBytes + len(payload)*amba.WordBytes + frameSumBytes
	dst = le32(dst, uint32(body))
	start := len(dst)
	dst = append(dst, kindData, dir, 0, 0)
	dst = le32(dst, seq)
	dst = le32(dst, ack)
	for _, w := range payload {
		dst = amba.PutWord(dst, w)
	}
	return le32(dst, byteSum(dst[start:]))
}

// frameReader cuts frames out of one connection's byte stream. It owns
// its buffer, so a read cut short by a deadline kick keeps every byte
// received so far, and the next call resumes the same frame.
type frameReader struct {
	src  io.Reader
	buf  []byte
	r, w int // unread bytes are buf[r:w]
	// exact reads no byte past the current frame, for the handshake,
	// after which the connection passes to the transport's own reader.
	exact bool
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, buf: make([]byte, readBufBytes)}
}

// next returns the body of the next frame (kind through checksum),
// valid until the following call. A read error returns with any
// partial frame kept. A length prefix outside the protocol bounds is
// stream damage and returns errFrameLength, killing the connection.
func (fr *frameReader) next() ([]byte, error) {
	need := 4
	for {
		if avail := fr.w - fr.r; avail >= 4 {
			n := int(getLE32(fr.buf[fr.r:]))
			if n < frameHeadBytes+frameSumBytes || n > maxFrameBytes {
				return nil, fmt.Errorf("%w: %d", errFrameLength, n)
			}
			if avail >= 4+n {
				body := fr.buf[fr.r+4 : fr.r+4+n]
				fr.r += 4 + n
				return body, nil
			}
			need = 4 + n
		}
		fr.reserve(need)
		end := len(fr.buf)
		if fr.exact {
			end = fr.r + need
		}
		m, err := fr.src.Read(fr.buf[fr.w:end])
		fr.w += m
		if m == 0 && err != nil {
			return nil, err
		}
	}
}

// reserve makes room for need bytes from the read position, moving the
// unread bytes to the front of the buffer (or into a larger one).
func (fr *frameReader) reserve(need int) {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	}
	if fr.r+need <= len(fr.buf) {
		return
	}
	buf := fr.buf
	if need > len(buf) {
		buf = make([]byte, need)
	}
	fr.w = copy(buf, fr.buf[fr.r:fr.w])
	fr.r = 0
	fr.buf = buf
}

// decodeFrame splits a frame body from frameReader.next. A checksum
// mismatch returns kind frameCorrupt: the stream framing is intact,
// only the frame content is untrusted.
func decodeFrame(body []byte) (kind, dir byte, seq, ack uint32, payload []byte) {
	n := len(body)
	if byteSum(body[:n-frameSumBytes]) != getLE32(body[n-frameSumBytes:]) {
		return frameCorrupt, 0, 0, 0, nil
	}
	return body[0], body[1], getLE32(body[4:]), getLE32(body[8:]), body[frameHeadBytes : n-frameSumBytes]
}

// byteSum is 32-bit FNV-1a over b. It is written out, rather than
// taken from hash/fnv, because it runs on every frame and must not
// allocate.
func byteSum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// le32 appends v little-endian.
func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// getLE32 decodes a little-endian u32 from the first 4 bytes of b.
func getLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
