package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"coemu/internal/core"
	"coemu/internal/metrics"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

// Daemon-mix shape.
const (
	daemonWorkers = 2    // coemud -j: one per core of the reference host
	daemonLaunch  = 15   // coemud launches per run; setup_s is the median
	repeatShare   = 0.25 // share of /v1/run requests that repeat an earlier body
	recentWindow  = 16   // a recent repeat picks one of the last 16 requests
	oldAge        = 256  // an old repeat is at least this many requests back
	gridCycles    = 4000 // cycle budget of every sweep-grid point
	gridRepeat    = 4    // every 4th grid repeats an earlier one
	runsPerGrid   = 50   // client 1 requests between grid starts
	gridBase      = 1 << 20
	mixModeled    = 16 // distinct bodies the modeled metrics average over
)

// daemon is one coemud child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	done    chan struct{} // closed once the process has exited
	waitErr error
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches coemud on a fresh loopback port with a
// persistent store under the run's scratch directory and returns once
// /v1/healthz answers 200, with the time that took (process start and
// store open included).
func (r *run) startDaemon() (*daemon, time.Duration, error) {
	bin, storeDir := r.o.coemud, filepath.Join(r.dir, "store")
	if bin == "" {
		return nil, 0, errors.New("no coemud binary (pass -coemud)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-j", fmt.Sprint(daemonWorkers), "-store", storeDir, "-log-level", "warn")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start coemud: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	r.daemons = append(r.daemons, d)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("coemud exited during start-up: %v", d.waitErr)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 20*time.Second {
			d.stop()
			return nil, 0, errors.New("coemud not healthy after 20s")
		}
	}
}

// stop shuts coemud down gracefully (SIGTERM), killing it if it does
// not exit within 15 s, and waits for the process to end.
func (d *daemon) stop() error {
	// Every client here uses the default transport. A connection it
	// dialed but never used stays "new" to the server, and a graceful
	// shutdown waits 5 s for such connections; close them first.
	(&http.Client{}).CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("coemud ignored SIGTERM; killed")
	}
	return d.waitErr
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// launchDaemon starts coemud daemonLaunch times on one store directory,
// stopping all but the last; setup_s is the median start-up time.
func launchDaemon(r *run) (*daemon, error) {
	var times []float64
	yBefore := r.y.sample(r.o.duration(yardSample))
	for i := 0; i < r.o.reps(daemonLaunch); i++ {
		d, took, err := r.startDaemon()
		if err != nil {
			return nil, err
		}
		times = append(times, took.Seconds())
		if i == r.o.reps(daemonLaunch)-1 {
			r.setSetup(times, yBefore)
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stop coemud: %w", err)
		}
	}
	panic("unreachable")
}

// mix drives coemud with two closed-loop clients — the callers the
// daemon really has (CLI runs, sweep clients, CI) each wait for their
// reply. Client 1 posts /v1/run requests; client 2 runs 16-point grids
// through a one-member sweepclient.Fleet.
type mix struct {
	r      *run
	d      *daemon
	http   *http.Client
	bodies map[int][]byte // design index -> spec body

	// gate pauses both clients while the yardstick runs: clients hold
	// it shared around each operation, drive exclusively.
	gate sync.RWMutex
	stop chan struct{}
	// spanParent is the traced pass's span the client spans nest under.
	spanParent int

	mu       sync.Mutex // guards everything below
	progress *sync.Cond // on mu; signaled as client 1 completes requests
	cycles   int64      // target cycles delivered in the open window
	lat      []float64  // client 1 request latencies, ms
	grids    []float64  // client 2 grid latencies, ms
	requests int        // /v1/run requests sent
	gridRuns int        // grids sent
	points   int
	firstSum map[int][32]byte // design index -> sha256 of its first response
	kept     map[int][]byte   // every 16th distinct design -> its response
	keptPts  []keptPoint      // every 16th sweep point -> its report
	gridRep  map[int][][]byte // grid index -> report bytes, for repeats
	errs     []error
}

type keptPoint struct {
	sp     *spec.Spec
	report []byte
}

func newMix(r *run, d *daemon) *mix {
	m := &mix{
		r: r, d: d,
		http:     &http.Client{Timeout: 5 * time.Minute},
		bodies:   map[int][]byte{},
		stop:     make(chan struct{}),
		firstSum: map[int][32]byte{},
		kept:     map[int][]byte{},
		gridRep:  map[int][][]byte{},
	}
	m.progress = sync.NewCond(&m.mu)
	return m
}

// body returns the spec body of design index i (client 1 only).
func (m *mix) body(i int) []byte {
	b, ok := m.bodies[i]
	if !ok {
		b = m.r.design(i)
		m.bodies[i] = b
	}
	return b
}

// requestStream yields the design index of each /v1/run request: fresh
// designs, with repeatShare of requests repeating an earlier one — half
// of those among the last recentWindow requests (memory-cache hits),
// half at least oldAge requests back (store hits once the memory cache
// has turned over).
type requestStream struct {
	seed  uint64
	hist  []int
	fresh int
}

func (s *requestStream) next() int {
	n := len(s.hist)
	rr := source(s.seed, saltRepeat, n)
	idx := -1
	if n > 0 && rr.Bool(repeatShare) {
		if n <= oldAge || rr.Bool(0.5) {
			idx = s.hist[n-1-rr.Intn(min(n, recentWindow))]
		} else {
			idx = s.hist[rr.Intn(n-oldAge+1)]
		}
	} else {
		idx = s.fresh
		s.fresh++
	}
	s.hist = append(s.hist, idx)
	return idx
}

func (m *mix) fail(err error) {
	m.mu.Lock()
	m.errs = append(m.errs, err)
	m.mu.Unlock()
}

func (m *mix) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// client1 posts /v1/run requests until stopped.
func (m *mix) client1() {
	rs := requestStream{seed: m.r.o.seed}
	for !m.stopped() {
		idx := rs.next()
		body := m.body(idx)
		sp, err := spec.Parse(body)
		if err != nil {
			m.fail(err)
			return
		}
		m.gate.RLock()
		if m.stopped() {
			m.gate.RUnlock()
			return
		}
		span := m.r.spans.begin("client1 /v1/run", m.spanParent, 2)
		t0 := time.Now()
		resp, err := m.http.Post(m.d.url+"/v1/run", "application/json", bytes.NewReader(body))
		var out []byte
		if err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/v1/run: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
			}
		}
		d := time.Since(t0)
		m.r.spans.end(span)
		m.gate.RUnlock()
		m.mu.Lock()
		m.requests++
		m.progress.Broadcast()
		if err != nil {
			m.errs = append(m.errs, err)
		} else {
			m.cycles += sp.Run.Cycles
			m.lat = append(m.lat, ms(d))
			sum := sha256.Sum256(out)
			if first, seen := m.firstSum[idx]; !seen {
				m.firstSum[idx] = sum
				if idx%oracleEvery == 0 {
					m.kept[idx] = out
				}
			} else if first != sum {
				m.errs = append(m.errs, fmt.Errorf("design %d: repeated /v1/run response differs from the first", idx))
			}
		}
		m.mu.Unlock()
	}
}

// gridPoints returns grid g's expanded points and the grid whose
// results it must reproduce (itself unless it is a repeat).
func (m *mix) gridPoints(g int) ([]*spec.Spec, int, error) {
	src := g
	if g%gridRepeat == gridRepeat-1 {
		// Repeat an earlier non-repeat grid.
		k := source(m.r.o.seed, saltGrid, g).Intn(g/gridRepeat*(gridRepeat-1) + (g % gridRepeat))
		src = k/(gridRepeat-1)*gridRepeat + k%(gridRepeat-1)
	}
	base, err := spec.Parse(m.r.design(gridBase + src))
	if err != nil {
		return nil, 0, err
	}
	pts, err := grid(base, m.r.o.cycles(gridCycles), uint64(src+1))
	return pts, src, err
}

// client2 runs sweep grids through a one-member fleet until stopped.
// Grid g starts once client 1 has completed g*runsPerGrid requests (40
// grids to 2,000 requests), so the mix of work the daemon sees is the
// same on a fast host and a slow one; a fixed wall-clock pause would let
// grids crowd out the run requests whenever the host slows down.
func (m *mix) client2() {
	fleet, err := sweepclient.NewFleet(sweepclient.FleetOptions{URLs: []string{m.d.url}})
	if err != nil {
		m.fail(err)
		return
	}
	defer fleet.Close()
	for g := 0; m.awaitRuns(g * runsPerGrid); g++ {
		pts, src, err := m.gridPoints(g)
		if err != nil {
			m.fail(err)
			return
		}
		m.gate.RLock()
		if m.stopped() {
			m.gate.RUnlock()
			return
		}
		span := m.r.spans.begin("client2 grid", m.spanParent, 3)
		t0 := time.Now()
		lines, _, err := fleet.RunPoints(context.Background(), pts)
		d := time.Since(t0)
		m.r.spans.end(span)
		m.gate.RUnlock()
		m.mu.Lock()
		m.gridRuns++
		m.points += len(pts)
		switch {
		case err != nil:
			m.errs = append(m.errs, fmt.Errorf("grid %d: %w", g, err))
		case len(lines) != len(pts):
			m.errs = append(m.errs, fmt.Errorf("grid %d: %d lines for %d points", g, len(lines), len(pts)))
		default:
			m.grids = append(m.grids, ms(d))
			reports := make([][]byte, len(lines))
			for i, l := range lines {
				if l.Error != "" {
					m.errs = append(m.errs, fmt.Errorf("grid %d point %d: %s", g, i, l.Error))
					continue
				}
				reports[i] = l.Report
				m.cycles += pts[i].Run.Cycles
				if (m.points-len(pts)+i)%oracleEvery == 0 {
					m.keptPts = append(m.keptPts, keptPoint{pts[i], l.Report})
				}
			}
			if first, ok := m.gridRep[src]; ok {
				for i := range reports {
					if !bytes.Equal(first[i], reports[i]) {
						m.errs = append(m.errs, fmt.Errorf("grid %d repeats grid %d but point %d differs", g, src, i))
					}
				}
			} else {
				m.gridRep[src] = reports
			}
		}
		m.mu.Unlock()
	}
}

// awaitRuns waits until client 1 has completed n requests; it reports
// false if the mix stopped first.
func (m *mix) awaitRuns(n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.requests < n && !m.stopped() {
		m.progress.Wait()
	}
	return !m.stopped()
}

// drive runs both clients for dur in a timed phase, pausing them for a
// yardstick sample after every second of traffic. Each window holds the
// target cycles delivered to both clients and client 1's latencies.
func (m *mix) drive(dur time.Duration) *phase {
	p := m.r.startPhase()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); m.client1() }()
	go func() { defer wg.Done(); m.client2() }()
	deadline := time.Now().Add(dur)
	filed := 0 // client 1 latencies already filed in a window
	for {
		t0 := time.Now()
		time.Sleep(min(p.every, time.Until(deadline)))
		m.gate.Lock() // waits for in-flight operations to finish
		m.mu.Lock()
		p.cycles, p.work = m.cycles, time.Since(t0)
		p.lat = append(p.lat, m.lat[filed:]...)
		filed, m.cycles = len(m.lat), 0
		m.mu.Unlock()
		last := !time.Now().Before(deadline)
		if last {
			close(m.stop)
			m.mu.Lock()
			m.progress.Broadcast() // wake client 2 out of awaitRuns
			m.mu.Unlock()
		}
		p.close()
		m.gate.Unlock()
		if last {
			break
		}
	}
	wg.Wait()
	return p
}

// counters scrapes coemud's /v1/stats.
func (m *mix) counters() (service.Counters, error) {
	var c service.Counters
	resp, err := m.http.Get(m.d.url + "/v1/stats")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// histMeans scrapes coemud's /metrics and returns the mean of every
// histogram family (sum / count; NaN when it has no observations).
func (m *mix) histMeans() (map[string]float64, error) {
	resp, err := m.http.Get(m.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		if f.Type != metrics.KindHistogram {
			continue
		}
		var sum, count float64
		for _, s := range f.Samples {
			switch s.Name {
			case f.Name + "_sum":
				sum = s.Value
			case f.Name + "_count":
				count = s.Value
			}
		}
		out[f.Name] = sum / count
	}
	return out, nil
}

// verify counts the clients' operations and every error they saw, and
// compares the kept daemon responses byte for byte with in-process
// results of the same specs.
func (m *mix) verify() {
	r := m.r
	r.attempted += int64(m.requests + m.gridRuns - len(m.errs))
	for _, err := range m.errs {
		r.op(err)
	}
	for idx, got := range m.kept {
		want, err := inProcessResponse(m.bodies[idx])
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("design %d: /v1/run response differs from the in-process result", idx)
		}
		r.op(err)
	}
	for _, kp := range m.keptPts {
		res, err := inProcessResult(kp.sp)
		if err == nil && !bytes.Equal(kp.report, res.JSON) {
			err = fmt.Errorf("sweep point %q: report differs from the in-process result", kp.sp.Name)
		}
		r.op(err)
	}
}

func inProcessResult(sp *spec.Spec) (*service.Result, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := e.Run(sp.Run.Cycles)
	if err != nil {
		return nil, err
	}
	return service.NewResult(rep)
}

// inProcessResponse is the /v1/run response body coemud serves for a
// spec: the canonical report bytes, indented, plus a newline.
func inProcessResponse(body []byte) ([]byte, error) {
	sp, err := spec.Parse(body)
	if err != nil {
		return nil, err
	}
	res, err := inProcessResult(sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, res.JSON, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// runDaemonMix is the e2e phase of daemon-mix.
func runDaemonMix(r *run) error {
	d, err := launchDaemon(r)
	if err != nil {
		return err
	}
	defer d.stop()
	m := newMix(r, d)
	p := m.drive(r.o.timed())
	if err := r.setPeakRSS(d.cmd.Process.Pid); err != nil {
		return err
	}
	c, err := m.counters()
	if err != nil {
		return err
	}
	r.op(d.stop())
	p.finish()
	r.note("client 1: %d /v1/run requests; client 2: %d grids (%d points); engine runs %d, cache hits %d, store hits %d",
		m.requests, len(m.grids), m.points, c.EngineRuns, c.CacheHits, c.StoreHits)
	m.verify()

	var mod modeled
	for i := 0; i < mixModeled; i++ {
		c, err := compile(m.body(i))
		if err != nil {
			return err
		}
		opt, err := runEngine(c, c.cfg)
		if err != nil {
			return err
		}
		cons, err := runEngine(c, conservative(c.cfg))
		if err != nil {
			return err
		}
		mod.add(opt, cons)
	}
	r.setModeled(&mod)
	return nil
}
