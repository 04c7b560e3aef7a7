package coemu_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"coemu/internal/channel"
	"coemu/internal/faultplan"
	"coemu/internal/remote"
	"coemu/internal/spec"
)

// Chaos over sockets: the cross-process split must absorb everything
// the in-process chaos suite absorbs, plus the failure modes only a
// real network has. Two fault surfaces compose here:
//
//   - wire faults (the test proxy in remote_proxy_test.go): frames
//     corrupted, held back or duplicated between the two sockets, and
//     connections cut. tcpchan heals them below the engine: a damaged
//     frame kills the connection, a copy is dropped, and the resume
//     handshake replays the window — the modeled run never sees them;
//   - modeled faults (spec fault_plan.channel): the FaultEndpoint
//     chaos layer riding above the transport, mirrored identically in
//     both processes by the shared spec seed — survivable plans are
//     absorbed, corruption surfaces as the same typed error in both
//     mirrors.
//
// Every surviving run must stay byte-identical to the fault-free
// in-process run, including across mid-run connection cuts healed by
// reconnect and resume.

// chaosVariant is remoteVariant for the chaos suite, with an optional
// modeled channel fault plan attached to the spec (so both mirrors
// derive the identical fault schedule from the handshake meta).
func chaosVariant(t *testing.T, sp *spec.Spec, cf *faultplan.ChannelFault, seed uint64) *spec.Spec {
	t.Helper()
	v := remoteVariant(t, sp, 1)
	if cf != nil {
		v.Run.FaultPlan = &faultplan.Plan{Seed: seed, Channel: cf}
	}
	return v
}

// TestChaosRemoteWireFaultsBitIdentical corrupts, duplicates and holds
// back data frames in both directions through the test proxy. The
// transport must heal all of it: the reports stay byte-identical to
// the clean in-process run, the proxy's counts prove the faults fired,
// and a run that saw corrupt frames healed them by reconnecting.
func TestChaosRemoteWireFaultsBitIdentical(t *testing.T) {
	wire := &faultplan.ChannelFault{Corrupt: 0.02, Duplicate: 0.05, Delay: 0.02, MaxDelayUS: 30}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			v := chaosVariant(t, sp, nil, 0)
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

// TestChaosRemoteModeledFaultsBitIdentical runs the in-process chaos
// suite's survivable plan — every modeled frame duplicated, some
// delayed — through the spec's fault_plan over a real socket. Both
// mirrors derive the same fault schedule from the handshake meta, so
// the runs stay bit-identical to the fault-free baseline.
func TestChaosRemoteModeledFaultsBitIdentical(t *testing.T) {
	plan := &faultplan.ChannelFault{Duplicate: 1, Delay: 0.01, MaxDelayUS: 5}
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			clean := chaosVariant(t, sp, nil, 0)
			want, _ := runSpec(t, clean, nil)
			v := chaosVariant(t, sp, plan, 7)
			res, err := remote.Pair(context.Background(), v, remote.RunOptions{}, remote.ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.ClientErr != nil || res.ServerErr != nil {
				t.Fatalf("modeled faults broke the run: client %v, server %v", res.ClientErr, res.ServerErr)
			}
			if !bytes.Equal(res.Client.View, want) || !bytes.Equal(res.ServerView, want) {
				t.Errorf("report diverged under modeled faults\nclient: %s\nserver: %s\nclean:  %s",
					res.Client.View, res.ServerView, want)
			}
		})
	}
}

// TestChaosRemoteCorruptionSurfacesBothMirrors forces modeled frame
// corruption and requires the identical typed error in both processes:
// a FaultEndpoint bit flip is injected identically by both mirrors, so
// both must fail with channel.ErrFrameCorrupt — clean symmetric
// failure, not divergence or hang.
func TestChaosRemoteCorruptionSurfacesBothMirrors(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	v := chaosVariant(t, sp, &faultplan.ChannelFault{Corrupt: 1}, 0)
	res, err := remote.Pair(context.Background(), v, remote.RunOptions{}, remote.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.ClientErr, channel.ErrFrameCorrupt) {
		t.Errorf("client err = %v, want channel.ErrFrameCorrupt", res.ClientErr)
	}
	if !errors.Is(res.ServerErr, channel.ErrFrameCorrupt) {
		t.Errorf("server err = %v, want channel.ErrFrameCorrupt", res.ServerErr)
	}
}

// TestChaosRemoteKillMidRunBitIdentical cuts the TCP connection twice
// while the run is in flight. The client transport must redial, resume
// via the handshake's expect position, replay its retransmission
// window, and finish with the byte-identical report.
func TestChaosRemoteKillMidRunBitIdentical(t *testing.T) {
	sp := exampleSpecs(t)["dma-stream"]
	v := chaosVariant(t, sp, nil, 0)
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
