package coemu_test

import (
	"fmt"
	"testing"
	"time"

	"coemu/internal/spec"
)

// BenchmarkRemoteChannel puts the paper's core claim on a real link:
// prediction packetizing exists to amortize channel latency, so on a
// TCP split with injected round-trip time the predictive (ALS,
// batched) engine must hold its throughput while the synchronous
// (conservative, per-cycle exchange) engine collapses linearly with
// RTT. The mirrors talk through the test proxy (remote_proxy_test.go),
// which releases every frame RTT/2 after it arrived; the modeled
// reports stay bit-identical throughout — latency moves host
// wall-clock only.

// remoteBenchCycles keeps one synchronous iteration at 2 ms RTT around
// a second of wall clock.
const remoteBenchCycles = 600

// remoteBenchSpec builds the idle-heavy gapped stream split (the
// workload prediction packetizing exists for) as a wire-shippable
// spec.
func remoteBenchSpec(tb testing.TB, mode string, cycleBatch int) *spec.Spec {
	tb.Helper()
	doc := fmt.Sprintf(`{
	  "name": "remote-bench",
	  "design": {
	    "masters": [{"name": "dma", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x40000"},
	                    "write": true, "burst": "INCR8", "bits": 32, "gap": 48}}],
	    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x80000"}}]
	  },
	  "run": {"mode": %q, "cycles": %d, "cycle_batch": %d}
	}`, mode, remoteBenchCycles, cycleBatch)
	sp, err := spec.Parse([]byte(doc))
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// runRemotePair runs one mirrored socket-pair session with the given
// injected RTT and fails the benchmark on any error or divergence.
func runRemotePair(tb testing.TB, sp *spec.Spec, rtt time.Duration) {
	tb.Helper()
	res, _ := pairVia(tb, sp, proxyPlan{Latency: rtt / 2})
	if res.ClientErr != nil || res.ServerErr != nil {
		tb.Fatalf("remote run failed: client %v, server %v", res.ClientErr, res.ServerErr)
	}
}

func BenchmarkRemoteChannel(b *testing.B) {
	rtts := []struct {
		name string
		rtt  time.Duration
	}{
		{"rtt=0", 0},
		{"rtt=200us", 200 * time.Microsecond},
		{"rtt=2ms", 2 * time.Millisecond},
	}
	engines := []struct {
		name string
		sp   *spec.Spec
	}{
		// Synchronous: conservative lockstep, one exchange pair per
		// target cycle — every cycle pays the link RTT.
		{"synchronous", remoteBenchSpec(b, "conservative", 1)},
		// Predictive: ALS prediction packetizing with default batching —
		// the link is touched only when a packetized burst or a
		// misprediction makes it necessary.
		{"predictive", remoteBenchSpec(b, "als", 0)},
	}
	for _, r := range rtts {
		for _, e := range engines {
			b.Run(r.name+"/"+e.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runRemotePair(b, e.sp, r.rtt)
				}
				b.ReportMetric(float64(remoteBenchCycles)*float64(b.N)/b.Elapsed().Seconds(), "target-cyc/s")
			})
		}
	}
}

// TestRemotePredictiveBeatsSynchronous pins the benchmark's headline
// inequality as a plain test: at 2 ms injected RTT the predictive
// engine must finish the same modeled run materially faster than the
// synchronous one. The margin is enormous by construction (dozens of
// channel accesses versus thousands), so a 2x bar is safe against CI
// noise.
func TestRemotePredictiveBeatsSynchronous(t *testing.T) {
	if testing.Short() {
		t.Skip("2ms-RTT synchronous run takes ~1s of wall clock")
	}
	const rtt = 2 * time.Millisecond
	sync := remoteBenchSpec(t, "conservative", 1)
	pred := remoteBenchSpec(t, "als", 0)

	t0 := time.Now()
	runRemotePair(t, sync, rtt)
	syncDur := time.Since(t0)
	t0 = time.Now()
	runRemotePair(t, pred, rtt)
	predDur := time.Since(t0)

	t.Logf("synchronous %v, predictive %v (%.1fx)", syncDur, predDur, float64(syncDur)/float64(predDur))
	if predDur*2 > syncDur {
		t.Errorf("predictive batching (%v) did not beat synchronous exchange (%v) by 2x at %v RTT",
			predDur, syncDur, rtt)
	}
}
