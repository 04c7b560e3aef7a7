package coemu_test

import (
	"bytes"
	"testing"
)

// Chaos over sockets: the cross-process split must absorb the failure
// modes only a real network has. The test proxy in remote_proxy_test.go
// corrupts, holds back or duplicates frames between the two sockets,
// and cuts connections. tcpchan heals them below the engine: a damaged
// frame kills the connection, a copy is dropped, and the resume
// handshake replays the window — the modeled run never sees them.
//
// Every surviving run must stay byte-identical to the fault-free
// in-process run, including across mid-run connection cuts healed by
// reconnect and resume.

// TestChaosRemoteWireFaultsBitIdentical corrupts, duplicates and holds
// back data frames in both directions through the test proxy. The
// transport must heal all of it: the reports stay byte-identical to
// the clean in-process run, the proxy's counts prove the faults fired,
// and a run that saw corrupt frames healed them by reconnecting.
func TestChaosRemoteWireFaultsBitIdentical(t *testing.T) {
	wire := &wireFaults{Corrupt: 0.02, Duplicate: 0.05, Delay: 0.02, MaxDelayUS: 30}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			v := remoteVariant(t, sp, 1)
			want, _ := runSpec(t, v, nil)
			res, n := pairVia(t, v, proxyPlan{Faults: wire, Seed: [2]uint64{1001, 2002}})
			if res.ClientErr != nil || res.ServerErr != nil {
				t.Fatalf("wire faults broke the run: client %v, server %v", res.ClientErr, res.ServerErr)
			}
			if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
				t.Errorf("report diverged under wire faults\nclient: %s\nserver: %s\nclean:  %s",
					res.Client.View, res.ServerView, want)
			}
			if n.Corrupted+n.Duplicated+n.Held == 0 {
				t.Fatal("the proxy injected no wire faults; test is vacuous")
			}
			cl, sv := res.Client.Transport, res.ServerStats
			if cl.CorruptFrames+cl.Dups+sv.CorruptFrames+sv.Dups == 0 {
				t.Fatalf("proxy injected %+v but no receiver ever noticed a fault", n)
			}
			if cl.CorruptFrames+sv.CorruptFrames > 0 && cl.Reconnects == 0 {
				t.Fatalf("corrupt frames were seen but never healed by a reconnect (client %+v, server %+v)", cl, sv)
			}
			t.Logf("proxy %+v; client %+v; server %+v", n, cl, sv)
		})
	}
}

// TestChaosRemoteKillMidRunBitIdentical cuts the TCP connection twice
// while the run is in flight. The client transport must redial, resume
// via the handshake's expect position, replay its retransmission
// window, and finish with the byte-identical report.
func TestChaosRemoteKillMidRunBitIdentical(t *testing.T) {
	sp := exampleSpecs(t)["dma-stream"]
	v := remoteVariant(t, sp, 1)
	want, _ := runSpec(t, v, nil)

	// Cut by frame progress, not by wall clock: the capped run sends
	// about 445 client frames, and a fast link finishes it before a
	// timer (which can fire milliseconds late on a busy host) would
	// land.
	res, n := pairVia(t, v, proxyPlan{CutAt: []int64{100, 300}})
	if n.Cuts != 2 {
		t.Fatalf("the proxy cut %d times, want 2", n.Cuts)
	}
	if res.ClientErr != nil || res.ServerErr != nil {
		t.Fatalf("killed run never healed: client %v, server %v", res.ClientErr, res.ServerErr)
	}
	if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
		t.Errorf("report diverged across reconnect\nclient: %s\nserver: %s\nclean:  %s",
			res.Client.View, res.ServerView, want)
	}
	if res.Client.Transport.Reconnects == 0 {
		t.Fatalf("no reconnect recorded (%+v); kill never landed mid-run", res.Client.Transport)
	}
}
