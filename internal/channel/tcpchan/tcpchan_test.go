package tcpchan

import (
	"errors"
	"hash/fnv"
	"io"
	"sync"
	"testing"
	"time"

	"coemu/internal/amba"
	"coemu/internal/channel"
)

// kill severs the current connection without closing the transport, as
// a network failure does. The keeper heals it by reconnecting.
func (t *Transport) kill() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil && !t.dead {
		t.markDeadLocked()
	}
}

// newPair connects a sim-role dialer to an acc-role acceptor over a
// loopback listener and returns both ready transports.
func newPair(t *testing.T, cli, srv Options) (*Transport, *Transport) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cli.Role = RoleSim
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
	sim, err := Dial(l.Addr().String(), cli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Close() })
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { acc.tr.Close() })
	return sim, acc.tr
}

func TestRoundTripBothDirections(t *testing.T) {
	sim, acc := newPair(t, Options{}, Options{})
	// Mirrored lockstep: both engines send in both directions; the
	// transport suppresses the non-authoritative copy.
	for i := 0; i < 10; i++ {
		p := []amba.Word{amba.Word(i), amba.Word(i * 7)}
		if err := sim.Send(channel.SimToAcc, p); err != nil {
			t.Fatal(err)
		}
		if err := acc.Send(channel.SimToAcc, p); err != nil { // suppressed
			t.Fatal(err)
		}
		if err := acc.Send(channel.AccToSim, p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Send(channel.AccToSim, p); err != nil { // suppressed
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		want := []amba.Word{amba.Word(i), amba.Word(i * 7)}
		check := func(tr *Transport, d channel.Dir) {
			t.Helper()
			pkt, err := tr.Recv(d)
			if err != nil {
				t.Fatalf("recv %v: %v", d, err)
			}
			if len(pkt) != 2 || pkt[0] != want[0] || pkt[1] != want[1] {
				t.Fatalf("recv %v = %v, want %v", d, pkt, want)
			}
			tr.Release(pkt)
		}
		check(sim, channel.SimToAcc) // local echo
		check(acc, channel.SimToAcc) // over the wire
		check(acc, channel.AccToSim) // local echo
		check(sim, channel.AccToSim) // over the wire
	}
}

func TestZeroLengthPayload(t *testing.T) {
	sim, acc := newPair(t, Options{}, Options{})
	if err := sim.Send(channel.SimToAcc, nil); err != nil {
		t.Fatal(err)
	}
	pkt, err := acc.Recv(channel.SimToAcc)
	if err != nil {
		t.Fatal(err)
	}
	if pkt == nil || len(pkt) != 0 {
		t.Fatalf("zero-length payload arrived as %#v", pkt)
	}
}

func TestRecvTimeoutReturnsChannelDown(t *testing.T) {
	sim, _ := newPair(t, Options{RecvTimeout: 80 * time.Millisecond}, Options{})
	if _, err := sim.Recv(channel.AccToSim); !errors.Is(err, channel.ErrChannelDown) {
		t.Fatalf("recv err = %v, want ErrChannelDown", err)
	}
}

func TestEmptyEchoIsImmediateError(t *testing.T) {
	sim, _ := newPair(t, Options{}, Options{})
	start := time.Now()
	_, err := sim.Recv(channel.SimToAcc)
	if !errors.Is(err, channel.ErrChannelDown) {
		t.Fatalf("recv err = %v, want ErrChannelDown", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("empty echo receive took %v; must fail immediately", d)
	}
}

// TestWireFaultsHealedByARQ puts damaged frames on the wire from a bare
// socket. Each must kill the connection (the socket reads EOF), count
// once and deliver nothing; the socket's resume then learns that the
// transport still expects sequence 1. A frame sent twice and then the
// next frame deliver once each, with the copy dropped on the live
// connection.
func TestWireFaultsHealedByARQ(t *testing.T) {
	acc, raw, addr := rawPeer(t, Options{})
	data := func(seq uint32) []byte {
		return appendDataFrame(nil, byte(channel.SimToAcc), seq, 0, []amba.Word{amba.Word(seq), 7})
	}
	flipped := data(1)
	flipped[len(flipped)-1] ^= 0x08 // a checksum bit
	corrupt := func(s Stats) int64 { return s.CorruptFrames }
	damaged := []struct {
		name  string
		frame []byte
		count func(Stats) int64
	}{
		{"checksum", flipped, corrupt},
		{"payload of 3 bytes", appendFrame(nil, kindData, byte(channel.SimToAcc), 1, 0, []byte{1, 2, 3}), corrupt},
		{"sequence gap", data(2), func(s Stats) int64 { return s.Gaps }},
		{"length prefix", []byte{0xFF, 0xFF, 0xFF, 0x7F}, corrupt},
	}
	for _, c := range damaged {
		before := acc.Stats()
		if _, err := raw.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := raw.Read(make([]byte, 64)); n != 0 || err != io.EOF {
			t.Fatalf("%s: the transport kept the connection (read %d bytes, %v)", c.name, n, err)
		}
		var expect uint32
		raw, expect = rawHello(t, addr, true, 1)
		if expect != 1 {
			t.Fatalf("%s: resume expects sequence %d, want 1", c.name, expect)
		}
		after := acc.Stats()
		if c.count(after) != c.count(before)+1 || after.Gaps+after.CorruptFrames != before.Gaps+before.CorruptFrames+1 {
			t.Fatalf("%s: stats %+v after %+v, want one kill counted", c.name, after, before)
		}
		if after.Received != 0 || acc.Pending(channel.SimToAcc) != 0 {
			t.Fatalf("%s: a damaged frame was delivered (%+v)", c.name, after)
		}
	}
	for _, seq := range []uint32{1, 1, 2} {
		if _, err := raw.Write(data(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := amba.Word(1); seq <= 2; seq++ {
		pkt, err := acc.Recv(channel.SimToAcc)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt) != 2 || pkt[0] != seq || pkt[1] != 7 {
			t.Fatalf("recv %d = %v", seq, pkt)
		}
		acc.Release(pkt)
	}
	if n := acc.Pending(channel.SimToAcc); n != 0 {
		t.Fatalf("%d packets left over: the copy was delivered", n)
	}
	// One reconnect per damaged frame, none for the copy.
	if st := acc.Stats(); st.Received != 2 || st.Dups != 1 || st.Reconnects != int64(len(damaged)) {
		t.Fatalf("stats %+v: want 2 delivered, 1 copy dropped, %d reconnects", st, len(damaged))
	}
}

func TestKillHealsWithReconnect(t *testing.T) {
	sim, acc := newPair(t,
		Options{RedialWait: 10 * time.Millisecond, tick: 5 * time.Millisecond},
		Options{tick: 5 * time.Millisecond})
	const n = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := sim.Send(channel.SimToAcc, []amba.Word{amba.Word(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i == 20 {
				sim.kill()
			}
			if i == 40 {
				acc.kill()
			}
		}
	}()
	for i := 0; i < n; i++ {
		pkt, err := acc.Recv(channel.SimToAcc)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(pkt) != 1 || pkt[0] != amba.Word(i) {
			t.Fatalf("recv %d = %v after reconnect", i, pkt)
		}
		acc.Release(pkt)
	}
	<-done
	if st := sim.Stats(); st.Reconnects == 0 {
		st2 := acc.Stats()
		if st2.Reconnects == 0 {
			t.Fatalf("no reconnects recorded on either side (sim %+v, acc %+v)", st, st2)
		}
	}
}

// crashedAcceptor returns an acc-role transport whose peer handshook
// and then died abruptly — no bye frame, and no resume will ever
// arrive, so the acceptor's reader is left in its re-accept wait.
func crashedAcceptor(t *testing.T, srv Options) *Transport {
	t.Helper()
	acc, conn, _ := rawPeer(t, srv)
	conn.Close()
	return acc
}

func TestAcceptorCloseUnblocksAfterPeerCrash(t *testing.T) {
	acc := crashedAcceptor(t, Options{RedialWait: 5 * time.Millisecond})
	time.Sleep(50 * time.Millisecond) // let acc's reader enter the re-accept wait
	done := make(chan struct{})
	go func() { acc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("acceptor Close deadlocked while waiting to re-accept a crashed peer")
	}
}

func TestAcceptorReacceptBudgetBounded(t *testing.T) {
	acc := crashedAcceptor(t, Options{
		Redial: 1, DialTimeout: 150 * time.Millisecond,
		RedialWait: time.Millisecond, RecvTimeout: 30 * time.Second,
	})
	// The re-accept budget (Redial×DialTimeout + backoff) expires and
	// takes the transport down well before RecvTimeout would.
	start := time.Now()
	_, err := acc.Recv(channel.SimToAcc)
	if !errors.Is(err, channel.ErrChannelDown) {
		t.Fatalf("recv err = %v, want ErrChannelDown", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("transport took %v to notice the peer is gone for good", d)
	}
}

func TestExchangeSum(t *testing.T) {
	sim, acc := newPair(t, Options{}, Options{})
	var got [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got[0], errs[0] = sim.ExchangeSum([]byte("sim-digest"), 2*time.Second) }()
	go func() { defer wg.Done(); got[1], errs[1] = acc.ExchangeSum([]byte("acc-digest"), 2*time.Second) }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("sum exchange: %v / %v", errs[0], errs[1])
	}
	if string(got[0]) != "acc-digest" || string(got[1]) != "sim-digest" {
		t.Fatalf("sum exchange swapped wrong blobs: %q / %q", got[0], got[1])
	}
}

func TestExchangeSumSurvivesReconnect(t *testing.T) {
	sim, acc := newPair(t,
		Options{RedialWait: 5 * time.Millisecond},
		Options{RedialWait: 5 * time.Millisecond})
	// Kill the connection first: the sum writes land on a dead (or
	// dying) socket and must be re-sent by the reconnect path.
	sim.kill()
	var got [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got[0], errs[0] = sim.ExchangeSum([]byte("sim-digest"), 5*time.Second) }()
	go func() { defer wg.Done(); got[1], errs[1] = acc.ExchangeSum([]byte("acc-digest"), 5*time.Second) }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("sum exchange across a reconnect: %v / %v", errs[0], errs[1])
	}
	if string(got[0]) != "acc-digest" || string(got[1]) != "sim-digest" {
		t.Fatalf("sum exchange delivered wrong blobs: %q / %q", got[0], got[1])
	}
}

func TestByteSumIsFNV1a(t *testing.T) {
	words := []amba.Word{0xDEADBEEF, 1, 0, 0xFFFFFFFF, 0x12345678}
	var b []byte
	for _, w := range words {
		b = amba.PutWord(b, w)
	}
	h := fnv.New32a()
	h.Write(b)
	if byteSum(b) != h.Sum32() {
		t.Fatalf("byteSum %#x != FNV-1a %#x", byteSum(b), h.Sum32())
	}
}

func TestHandshakeRejectsBadMeta(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		// Reject everything: the accept loop keeps waiting, the dialer
		// must see its connection die.
		l.Accept(Options{Role: RoleAcc, VerifyMeta: func([]byte, string) error {
			return errors.New("no")
		}})
	}()
	_, err = Dial(l.Addr().String(), Options{Role: RoleSim, Meta: []byte("{}"), DialTimeout: time.Second})
	if err == nil {
		t.Fatal("dial succeeded against a rejecting acceptor")
	}
}
