package coemu_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"coemu/internal/channel/tcpchan"
	"coemu/internal/remote"
	"coemu/internal/rng"
	"coemu/internal/spec"
)

// A frame-aware TCP proxy between remote.Run and remote.Serve. It
// forwards tcpchan frames in order and gives the link what a loopback
// socket lacks: latency, damaged, copied or held-back data frames,
// frames arriving in pieces, and connection cuts. tcpchan must heal all
// of it below the engine, so the reports stay byte-identical.

// proxyPlan is what a wireProxy does to the frames it forwards.
type proxyPlan struct {
	// Latency releases each frame this long after it arrived, in order,
	// so a round trip through the proxy costs 2·Latency more. A latency
	// shorter than the host's sleep granularity lasts that granularity
	// instead (about 1.1 ms on the 2-vCPU host of PERFORMANCE.md), so
	// BenchmarkRemoteChannel's rtt=200us rows measure the timer.
	Latency time.Duration
	// Chunk, when positive, writes each frame in pieces of at most
	// Chunk bytes.
	Chunk int
	// Faults damages, copies or holds back data frames. Seed seeds the
	// client-to-host and host-to-client draws.
	Faults *wireFaults
	Seed   [2]uint64
	// CutAt lists counts of client data frames forwarded at which the
	// proxy closes both legs of the connection.
	CutAt []int64
}

// wireFaults are per-data-frame probabilities: flip one body bit
// (Corrupt), send the frame twice (Duplicate), or hold it back, and
// every frame behind it, for up to MaxDelayUS microseconds (Delay).
type wireFaults struct {
	Corrupt, Duplicate, Delay float64
	MaxDelayUS                int
}

// proxyCounts is what a wireProxy did.
type proxyCounts struct {
	Corrupted, Duplicated, Held, Cuts int64
}

// kindData is the tcpchan data frame kind. A frame is u32 length,
// then the body: u8 kind, u8 dir, u16 reserved, u32 seq, u32 ack, the
// payload and a u32 checksum.
const kindData = 3

// wireProxy forwards one domain host's port; each accepted connection
// gets its own upstream leg.
type wireProxy struct {
	ln       net.Listener
	upstream string
	plan     proxyPlan
	wg       sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	legs       []net.Conn
	draw       [2]*rng.Source
	clientData int64
	n          proxyCounts
}

// startProxy listens on loopback and forwards to upstream until Close.
func startProxy(tb testing.TB, upstream string, plan proxyPlan) *wireProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := &wireProxy{ln: ln, upstream: upstream, plan: plan}
	for d := range p.draw {
		p.draw[d] = rng.New(plan.Seed[d])
	}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *wireProxy) addr() string { return p.ln.Addr().String() }

// Close stops accepting, cuts every leg and waits for the forwarders.
func (p *wireProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.legs {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *wireProxy) counts() proxyCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *wireProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		u, err := net.Dial("tcp", p.upstream)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			u.Close()
			return
		}
		p.legs = append(p.legs, c, u)
		p.mu.Unlock()
		var once sync.Once
		cut := func() { once.Do(func() { c.Close(); u.Close() }) }
		p.wg.Add(2)
		go p.forward(c, u, 0, cut)
		go p.forward(u, c, 1, cut)
	}
}

// forward copies frames from src to dst: this goroutine reads and
// stamps them, a writer releases them Latency later. Either side's end
// cuts the connection.
func (p *wireProxy) forward(src, dst net.Conn, dir int, cut func()) {
	defer p.wg.Done()
	defer cut()
	type arrival struct {
		frame []byte
		at    time.Time
	}
	// The queue is the frames in flight on this leg; a full queue stops
	// the reading as a full socket buffer would.
	q := make(chan arrival, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range q {
			if d := time.Until(a.at.Add(p.plan.Latency)); d > 0 {
				time.Sleep(d)
			}
			if err := p.release(dst, a.frame, dir, cut); err != nil {
				cut()
				return
			}
		}
	}()
	r := bufio.NewReader(src)
	for open := true; open; {
		frame, err := readProxyFrame(r)
		if err != nil {
			break
		}
		select {
		case q <- arrival{frame, time.Now()}:
		case <-done:
			open = false
		}
	}
	close(q)
	<-done
}

// release writes one frame to dst with the plan's faults, and cuts the
// connection once the client's data frames reach the next cut point.
func (p *wireProxy) release(dst net.Conn, frame []byte, dir int, cut func()) error {
	copies := [][]byte{frame}
	var hold time.Duration
	cutNow := false
	if frame[4] == kindData {
		p.mu.Lock()
		if f := p.plan.Faults; f != nil {
			draw := p.draw[dir]
			if f.Delay > 0 && f.MaxDelayUS > 0 && draw.Bool(f.Delay) {
				p.n.Held++
				hold = time.Duration(1+draw.Intn(f.MaxDelayUS)) * time.Microsecond
			}
			if draw.Bool(f.Duplicate) {
				p.n.Duplicated++
				copies = append(copies, frame)
			}
			for i, b := range copies {
				if draw.Bool(f.Corrupt) {
					p.n.Corrupted++
					b = append([]byte(nil), b...)
					bit := draw.Intn((len(b) - 4) * 8)
					b[4+bit/8] ^= 1 << (bit % 8)
					copies[i] = b
				}
			}
		}
		if dir == 0 {
			p.clientData++
			if len(p.plan.CutAt) > int(p.n.Cuts) && p.clientData == p.plan.CutAt[p.n.Cuts] {
				p.n.Cuts++
				cutNow = true
			}
		}
		p.mu.Unlock()
	}
	time.Sleep(hold)
	for _, b := range copies {
		for len(b) > 0 {
			n := len(b)
			if p.plan.Chunk > 0 && n > p.plan.Chunk {
				n = p.plan.Chunk
			}
			if _, err := dst.Write(b[:n]); err != nil {
				return err
			}
			b = b[n:]
		}
	}
	if cutNow {
		cut()
	}
	return nil
}

// readProxyFrame reads one length-prefixed frame, prefix included.
func readProxyFrame(r *bufio.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n < 16 || n > 16<<20 {
		return nil, fmt.Errorf("proxy: frame length %d out of range", n)
	}
	frame := make([]byte, 4+n)
	copy(frame, prefix[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// pairVia is remote.Pair with the client dialing the domain host
// through a wireProxy that runs plan. It returns both mirrors' outcome
// and what the proxy did.
func pairVia(tb testing.TB, sp *spec.Spec, plan proxyPlan) (*remote.PairResult, proxyCounts) {
	tb.Helper()
	l, err := tcpchan.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := startProxy(tb, l.Addr().String(), plan)
	ctx, cancel := context.WithCancel(context.Background())
	sessions := make(chan remote.SessionInfo, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		remote.Serve(ctx, l, remote.ServeOptions{
			Once:      true,
			OnSession: func(info remote.SessionInfo) { sessions <- info },
		})
	}()
	defer func() {
		cancel()
		p.Close()
		l.Close()
		<-served
	}()
	res := &remote.PairResult{}
	res.Client, res.ClientErr = remote.Run(context.Background(), p.addr(), sp, remote.RunOptions{})
	select {
	case info := <-sessions:
		res.ServerReport, res.ServerView, res.ServerErr = info.Report, info.View, info.Err
		res.ServerStats = info.Transport
	case <-time.After(30 * time.Second):
		tb.Fatalf("serving mirror never finished (client: %v)", res.ClientErr)
	}
	return res, p.counts()
}
