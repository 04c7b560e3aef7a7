package sweepclient

// prober.go — active fleet membership. The fleet cannot shard onto
// daemons it merely hopes are alive: a dead shard would eat its points'
// retry budget round after round. The prober polls every member's
// /v1/healthz on an interval, folds in the fleet's own submission
// outcomes (a failed shard POST is evidence too), and maintains the
// healthy membership the ring is rebuilt from each round:
//
//   - Eviction: FailThreshold consecutive failures (probe or
//     submission) mark a member unhealthy and its points rebalance
//     onto the survivors.
//   - Re-admission: one successful probe restores a member — the next
//     round's ring includes it again, and only still-unfinished points
//     flow back to it (completed points live in the shared store).
//   - Load awareness: the extended /v1/healthz JSON carries queue
//     depth and store stats; the fleet uses them to prefer
//     lightly-loaded members for result lookups and to halve the
//     bounded-load cap of saturated ones.
//
// A 503 from /v1/healthz is a live-but-saturated daemon, not a dead
// one: it stays in membership (its jobs are still running; the fleet's
// backoff handles the shedding) but is marked saturated.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Prober defaults.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultFailThreshold = 2
)

// MemberHealth is a point-in-time view of one fleet member.
type MemberHealth struct {
	URL     string
	Healthy bool
	// Fails counts consecutive probe/submission failures since the last
	// success.
	Fails int
	// Saturated mirrors the daemon's queue-saturation flag from its last
	// successful probe.
	Saturated bool
	// Queue and QueueCapacity are the daemon's worker-queue occupancy
	// from its last successful probe.
	Queue, QueueCapacity int
	// StoreEntries/StoreBytes/StoreQuarantined mirror the daemon's
	// persistent-store stats (zero when it runs without a store).
	StoreEntries     int
	StoreBytes       int64
	StoreQuarantined int64
}

// utilization orders members by load for "prefer lightly loaded".
func (m MemberHealth) utilization() float64 {
	if m.QueueCapacity <= 0 {
		return 0
	}
	return float64(m.Queue) / float64(m.QueueCapacity)
}

// healthzBody is the subset of the daemon's /v1/healthz JSON the
// prober reads. Old daemons without the store block still parse — the
// bare-200 contract is the only hard requirement.
type healthzBody struct {
	OK            bool `json:"ok"`
	Queue         int  `json:"queue"`
	QueueCapacity int  `json:"queue_capacity"`
	Saturated     bool `json:"saturated"`
	Store         *struct {
		Entries     int   `json:"entries"`
		Bytes       int64 `json:"bytes"`
		Quarantined int64 `json:"quarantined"`
	} `json:"store"`
}

// prober tracks fleet membership health in the background.
type prober struct {
	http      *http.Client
	interval  time.Duration
	threshold int
	logf      func(format string, args ...any)

	mu      sync.Mutex
	members map[string]*MemberHealth
	order   []string // stable iteration order

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// newProber starts probing urls every interval. Members start healthy
// (optimistically — the first round of real traffic corrects fast), and
// one probe round runs synchronously before the background loop so the
// initial view reflects reality when the daemons answer promptly.
func newProber(urls []string, client *http.Client, interval time.Duration, threshold int, logf func(string, ...any)) *prober {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	if threshold <= 0 {
		threshold = DefaultFailThreshold
	}
	p := &prober{
		http:      client,
		interval:  interval,
		threshold: threshold,
		logf:      logf,
		members:   make(map[string]*MemberHealth, len(urls)),
		order:     append([]string(nil), urls...),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, u := range urls {
		p.members[u] = &MemberHealth{URL: u, Healthy: true}
	}
	p.probeAll()
	go p.loop()
	return p
}

// loop polls until Close.
func (p *prober) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// Close stops the background loop.
func (p *prober) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// probeAll probes every member once, concurrently.
func (p *prober) probeAll() {
	p.mu.Lock()
	urls := append([]string(nil), p.order...)
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			p.probeOne(u)
		}(u)
	}
	wg.Wait()
}

// probeOne polls one member's /v1/healthz and folds the outcome in.
func (p *prober) probeOne(url string) {
	req, err := http.NewRequest(http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		p.reportFailure(url, err)
		return
	}
	resp, err := p.http.Do(req)
	if err != nil {
		p.reportFailure(url, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	// 200 is healthy; 503 is the daemon's own load-shedding signal —
	// alive, just saturated. Anything else is a failure.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		p.reportFailure(url, fmt.Errorf("/v1/healthz answered %s", resp.Status))
		return
	}
	var h healthzBody
	_ = json.Unmarshal(body, &h) // a bare 200 with no JSON still counts
	if resp.StatusCode == http.StatusServiceUnavailable {
		h.Saturated = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[url]
	if m == nil {
		return
	}
	if !m.Healthy {
		p.logfLocked("sweepclient: daemon %s recovered; re-admitting", url)
	}
	m.Healthy = true
	m.Fails = 0
	m.Saturated = h.Saturated
	m.Queue, m.QueueCapacity = h.Queue, h.QueueCapacity
	if h.Store != nil {
		m.StoreEntries, m.StoreBytes, m.StoreQuarantined = h.Store.Entries, h.Store.Bytes, h.Store.Quarantined
	}
}

// reportFailure records one failed interaction (probe or submission)
// with a member, evicting it at the threshold.
func (p *prober) reportFailure(url string, cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[url]
	if m == nil {
		return
	}
	m.Fails++
	if m.Healthy && m.Fails >= p.threshold {
		m.Healthy = false
		p.logfLocked("sweepclient: daemon %s evicted after %d consecutive failures (%v)", url, m.Fails, cause)
	}
}

// reportSuccess records one successful interaction, re-admitting the
// member if it was evicted.
func (p *prober) reportSuccess(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[url]
	if m == nil {
		return
	}
	if !m.Healthy {
		p.logfLocked("sweepclient: daemon %s served traffic; re-admitting", url)
	}
	m.Healthy = true
	m.Fails = 0
}

// healthy snapshots the healthy members, lightly-loaded first (queue
// utilization, then URL for determinism).
func (p *prober) healthy() []MemberHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberHealth, 0, len(p.order))
	for _, u := range p.order {
		if m := p.members[u]; m.Healthy {
			out = append(out, *m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ui, uj := out[i].utilization(), out[j].utilization()
		if ui != uj {
			return ui < uj
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// snapshot reports every member's state, in construction order.
func (p *prober) snapshot() []MemberHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberHealth, 0, len(p.order))
	for _, u := range p.order {
		out = append(out, *p.members[u])
	}
	return out
}

// logfLocked logs under p.mu (the logger itself must not call back).
func (p *prober) logfLocked(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}
