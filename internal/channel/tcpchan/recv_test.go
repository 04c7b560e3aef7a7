package tcpchan

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
)

// waitKeeperReading blocks until tr's keeper holds the socket in an
// idle read.
func waitKeeperReading(t *testing.T, tr *Transport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tr.mu.Lock()
		idle := tr.reading && !tr.waiting
		tr.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("keeper never started an idle read")
}

// rawPeer accepts an acc-role transport whose sim-role peer is a bare
// socket, so a test can put arbitrary bytes on the wire. It also
// returns the listener address, for the peer's resumes.
func rawPeer(t *testing.T, srv Options) (*Transport, net.Conn, string) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv.Role = RoleAcc
	type accepted struct {
		tr  *Transport
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		tr, _, err := l.Accept(srv)
		ch <- accepted{tr, err}
	}()
	conn, _ := rawHello(t, l.Addr().String(), false, 0)
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { acc.tr.Close() })
	return acc.tr, conn, l.Addr().String()
}

// rawHello dials addr and runs a sim-role handshake on a bare socket,
// as a fresh session or as a resume expecting sequence expect. It
// returns the socket and the peer's next expected sequence.
func rawHello(t *testing.T, addr string, resume bool, expect uint32) (net.Conn, uint32) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ok, err := handshake(conn, helloMsg{
		Magic: protocolMagic, Version: protocolVersion,
		Role: RoleSim.String(), Hash: "h", Resume: resume, Expect: expect,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn, ok.Expect
}

func TestRecvTakesOverFromIdleKeeper(t *testing.T) {
	const tick = 300 * time.Millisecond
	sim, acc := newPair(t, Options{tick: tick}, Options{tick: tick})
	for round := 0; round < 3; round++ {
		waitKeeperReading(t, acc)
		for i := 0; i < 3; i++ {
			if err := sim.Send(channel.SimToAcc, []amba.Word{amba.Word(round), amba.Word(i)}); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < 3; i++ {
			pkt, err := acc.Recv(channel.SimToAcc)
			if err != nil {
				t.Fatalf("round %d recv %d: %v", round, i, err)
			}
			if len(pkt) != 2 || pkt[0] != amba.Word(round) || pkt[1] != amba.Word(i) {
				t.Fatalf("round %d recv %d = %v: out of order", round, i, pkt)
			}
			acc.Release(pkt)
		}
		if d := time.Since(start); d >= tick {
			t.Fatalf("round %d: taking the socket over from the keeper took %v, more than one tick", round, d)
		}
		if n := acc.Pending(channel.SimToAcc); n != 0 {
			t.Fatalf("round %d: %d packets left over: delivered twice", round, n)
		}
	}
	if st := acc.Stats(); st.Received != 9 || st.Dups != 0 || st.Gaps != 0 {
		t.Fatalf("stats %+v: want exactly 9 in-order deliveries", st)
	}
}

func TestKickMidFrameKeepsStream(t *testing.T) {
	// A long tick keeps the keeper from starting a fresh idle read
	// between the test's kicks.
	acc, raw, _ := rawPeer(t, Options{tick: 300 * time.Millisecond})
	frame := appendDataFrame(nil, byte(channel.SimToAcc), 1, 0, []amba.Word{0xDEADBEEF, 7, 0, 42})
	half := len(frame) / 2

	waitKeeperReading(t, acc)
	if _, err := raw.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	// Kick the keeper's read, as the watchdog would, until it is seen
	// out of its read with the first half kept. Its frame reader is
	// only touched by the reading goroutine, so it is safe to inspect
	// under mu while nobody reads.
	deadline := time.Now().Add(5 * time.Second)
	for {
		acc.mu.Lock()
		kept := !acc.reading && acc.fr.w-acc.fr.r == half
		if acc.reading {
			acc.kickLocked()
		}
		acc.mu.Unlock()
		if kept {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the kicked keeper never held the first half of the frame")
		}
		time.Sleep(time.Millisecond)
	}

	got := make(chan []amba.Word, 1)
	go func() {
		// The engine kicks the keeper again on arrival, then reads on.
		pkt, err := acc.Recv(channel.SimToAcc)
		if err != nil {
			t.Error(err)
		}
		got <- pkt
	}()
	deadline = time.Now().Add(5 * time.Second)
	for {
		acc.mu.Lock()
		waiting := acc.waiting
		acc.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Recv never started waiting for the frame")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := raw.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if len(pkt) != 4 || pkt[0] != 0xDEADBEEF || pkt[1] != 7 || pkt[2] != 0 || pkt[3] != 42 {
			t.Fatalf("delivered %v", pkt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame split by a kick was never delivered")
	}
	if st := acc.Stats(); st.Gaps != 0 || st.CorruptFrames != 0 || st.Reconnects != 0 {
		t.Fatalf("stats %+v: a kick mid-frame must cost no gap, corrupt frame or reconnect", st)
	}
}

func TestCloseWaitsForPeerToHoldSum(t *testing.T) {
	// A long tick keeps both keepers from reading on their own while the
	// test stages the exchange.
	opts := Options{RedialWait: 5 * time.Millisecond, tick: time.Second}
	sim, acc := newPair(t, opts, opts)
	accDone := make(chan error, 1)
	go func() {
		got, err := acc.ExchangeSum([]byte("acc-digest"), 5*time.Second)
		if err == nil && string(got) != "sim-digest" {
			err = errors.New("acc received " + string(got))
		}
		if err == nil {
			acc.Close() // must stay up until sim holds acc's digest
		}
		accDone <- err
	}()
	// sim's digest reaches acc, then sim's connection dies before sim
	// has read acc's digest: acc is already done and closing.
	sim.mu.Lock()
	sim.pendingSum = []byte("sim-digest")
	sim.writeCtrlLocked(kindSum, 0, sim.recvNext-1, sim.pendingSum)
	sim.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		acc.mu.Lock()
		got := acc.peerSum != nil
		acc.mu.Unlock()
		if got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acc never received sim's digest")
		}
		time.Sleep(time.Millisecond)
	}
	sim.kill()
	got, err := sim.ExchangeSum([]byte("sim-digest"), 5*time.Second)
	if err != nil || string(got) != "acc-digest" {
		t.Fatalf("sim's exchange after the kill: %q, %v", got, err)
	}
	if err := <-accDone; err != nil {
		t.Fatal(err)
	}
}

// kickedReader delivers its frames in two halves with a deadline error
// in between, as a connection kicked mid-frame does.
type kickedReader struct {
	parts [][]byte
	kick  bool
}

func (r *kickedReader) Read(p []byte) (int, error) {
	if len(r.parts) == 0 {
		return 0, io.EOF
	}
	if r.kick = !r.kick; !r.kick {
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p, r.parts[0])
	if r.parts[0] = r.parts[0][n:]; len(r.parts[0]) == 0 {
		r.parts = r.parts[1:]
	}
	return n, nil
}

func TestFrameReaderResumesAfterKick(t *testing.T) {
	a := appendFrame(nil, kindAck, 0, 5, 0, nil)
	b := appendDataFrame(nil, 0, 9, 0, []amba.Word{1, 2, 3})
	stream := append(append([]byte{}, a...), b...)
	cut := len(a) + 7 // inside b's header
	for _, exact := range []bool{false, true} {
		fr := &frameReader{src: &kickedReader{parts: [][]byte{stream[:3], stream[3:cut], stream[cut:]}}, exact: exact}
		var got [][]byte
		kicks := 0
		for {
			body, err := fr.next()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				kicks++
				continue
			}
			if err != nil {
				break
			}
			got = append(got, append([]byte{}, body...))
		}
		if kicks == 0 || len(got) != 2 || !bytes.Equal(got[0], a[4:]) || !bytes.Equal(got[1], b[4:]) {
			t.Fatalf("exact=%v: %d kicks, frames %x; want %x and %x", exact, kicks, got, a[4:], b[4:])
		}
	}
}

func TestSteadyRoundTripAllocFree(t *testing.T) {
	sim, acc := newPair(t, Options{}, Options{})
	word := []amba.Word{1, 2, 3, 4}
	recv := func(tr *Transport, d channel.Dir) {
		pkt, err := tr.Recv(d)
		if err != nil {
			t.Fatal(err)
		}
		tr.Release(pkt)
	}
	roundTrip := func() {
		if err := sim.Send(channel.SimToAcc, word); err != nil {
			t.Fatal(err)
		}
		recv(acc, channel.SimToAcc)
		if err := acc.Send(channel.AccToSim, word); err != nil {
			t.Fatal(err)
		}
		recv(sim, channel.AccToSim)
		recv(sim, channel.SimToAcc) // local echoes
		recv(acc, channel.AccToSim)
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
		t.Fatalf("steady-state Send→Recv round trip allocates %.2f times; want 0", n)
	}
}

// choppyReader replays a byte stream in chunks of at most chunk bytes,
// answering every other call with a deadline error.
type choppyReader struct {
	b     []byte
	chunk int
	kick  bool
}

func (c *choppyReader) Read(p []byte) (int, error) {
	if c.kick = !c.kick; c.kick {
		return 0, os.ErrDeadlineExceeded
	}
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.b)
	c.b = c.b[n:]
	return n, nil
}

func FuzzReadFrame(f *testing.F) {
	data := appendDataFrame(nil, 1, 3, 2, []amba.Word{0xDEADBEEF, 1})
	ack := appendFrame(nil, kindAck, 0, 7, 1, nil)
	corrupt := append([]byte{}, data...)
	corrupt[9] ^= 0x10
	f.Add(append(append([]byte{}, data...), ack...), uint8(5), false)
	f.Add(append(append([]byte{}, ack...), corrupt...), uint8(1), true)
	f.Add(data[:len(data)-3], uint8(64), false)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}, uint8(2), true)
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8, exact bool) {
		fr := &frameReader{src: &choppyReader{b: stream, chunk: int(chunk)%64 + 1}, exact: exact}
		off := 0
		for {
			body, err := fr.next()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if errors.Is(err, io.EOF) {
				// Every byte is a delivered frame or the kept partial one.
				if off+fr.w-fr.r != len(stream) {
					t.Fatalf("EOF after %d frame bytes with %d buffered; stream has %d", off, fr.w-fr.r, len(stream))
				}
				return
			}
			if err != nil {
				// Only a length prefix out of range is fatal to the stream.
				if n := int(getLE32(stream[off:])); n >= frameHeadBytes+frameSumBytes && n <= maxFrameBytes {
					t.Fatalf("reader failed on a valid length %d at offset %d: %v", n, off, err)
				}
				return
			}
			// Kicks neither drop nor reorder bytes: every body is the
			// stream's next length-prefixed frame.
			n := len(body)
			if off+4+n > len(stream) || int(getLE32(stream[off:])) != n || !bytes.Equal(stream[off+4:off+4+n], body) {
				t.Fatalf("frame at offset %d does not match the stream", off)
			}
			if exact && fr.w != fr.r {
				t.Fatalf("exact reader buffered %d bytes past a frame", fr.w-fr.r)
			}
			kind, dir, seq, ack, payload := decodeFrame(body)
			if kind != frameCorrupt && body[2] == 0 && body[3] == 0 {
				// A frame that passes its checksum re-encodes to itself.
				if re := appendFrame(nil, kind, dir, seq, ack, payload); !bytes.Equal(re, stream[off:off+4+n]) {
					t.Fatalf("frame at offset %d re-encodes differently", off)
				}
			}
			off += 4 + n
		}
	})
}
