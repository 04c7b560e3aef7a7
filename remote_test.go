package coemu_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"coemu"
	"coemu/internal/channel/tcpchan"
	"coemu/internal/remote"
	"coemu/internal/spec"
)

// Differential tests for cross-process co-emulation: splitting the two
// domains across a real TCP socket — whether both ends live in this
// test binary or in two separate OS processes — must not change a
// single bit of the canonical report. The modeled experiment is fully
// determined by the spec; the transport is plumbing.

// remoteCycleCap bounds run length for the TCP differentials: long
// enough to cross flush, report-exchange, rollback and snapshot paths
// on every example, short enough to keep dozens of socket-pair runs
// fast.
const remoteCycleCap = 4000

// remoteVariant clones sp with capped cycles and the given
// cycle_batch. Cloning goes through JSON — the same round trip the spec
// takes inside the handshake.
func remoteVariant(t *testing.T, sp *coemu.Spec, batch int) *coemu.Spec {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := spec.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Run.Cycles > remoteCycleCap {
		cl.Run.Cycles = remoteCycleCap
	}
	cl.Run.CycleBatch = batch
	return cl
}

// TestRemoteDifferentialBitIdentical runs every example spec
// in-process and cross-process (two mirrored engines over a loopback
// TCP socket pair in this binary), sweeping the host-side batching
// knob and the link's ping cadence (the client keeper pings every
// cadence milliseconds, interleaving ping/pong frames with the data
// stream), and requires byte-identical canonical report JSON on all
// three reports plus identical channel statistics.
func TestRemoteDifferentialBitIdentical(t *testing.T) {
	for name, sp := range exampleSpecs(t) {
		t.Run(name, func(t *testing.T) {
			want, wantRep := runSpec(t, remoteVariant(t, sp, 1), nil)
			for _, batch := range []int{1, 64} {
				for _, cadence := range []int{1, 16} {
					t.Run(fmt.Sprintf("batch=%d_cadence=%d", batch, cadence), func(t *testing.T) {
						v := remoteVariant(t, sp, batch)
						ro := remote.RunOptions{PingEvery: time.Duration(cadence) * time.Millisecond}
						res, err := remote.Pair(context.Background(), v, ro, remote.ServeOptions{})
						if err != nil {
							t.Fatal(err)
						}
						if res.ClientErr != nil {
							t.Fatalf("client mirror: %v", res.ClientErr)
						}
						if res.ServerErr != nil {
							t.Fatalf("serving mirror: %v", res.ServerErr)
						}
						if !bytes.Equal(res.Client.View, want) {
							t.Errorf("client report diverged from in-process run\nremote: %s\nlocal:  %s", res.Client.View, want)
						}
						if !bytes.Equal(res.ServerView, want) {
							t.Errorf("serving report diverged from in-process run\nremote: %s\nlocal:  %s", res.ServerView, want)
						}
						if res.Client.Report.Channel != wantRep.Channel {
							t.Errorf("client channel stats = %+v, want %+v", res.Client.Report.Channel, wantRep.Channel)
						}
						if res.ServerReport.Channel != wantRep.Channel {
							t.Errorf("server channel stats = %+v, want %+v", res.ServerReport.Channel, wantRep.Channel)
						}
					})
				}
			}
		})
	}
}

// helperEnv flags the re-exec'd test binary into domain-server mode.
const helperEnv = "COEMU_TEST_DOMAIN_SERVE"

// TestHelperDomainServe is not a test: it is the server half of the
// true two-process differential, run in a child process by
// TestRemoteTwoProcessBitIdentical. It hosts one accelerator-domain
// session on an ephemeral port, announces the address on stdout, and
// exits when the session completes.
func TestHelperDomainServe(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for TestRemoteTwoProcessBitIdentical")
	}
	l, err := tcpchan.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Printf("HELPER_ERR listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("LISTENING %s\n", l.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := remote.Serve(ctx, l, remote.ServeOptions{Once: true}); err != nil {
		fmt.Printf("HELPER_ERR serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("HELPER_OK")
}

// TestRemoteTwoProcessBitIdentical re-executes this test binary as a
// separate OS process hosting the accelerator domain, dials it over
// real TCP, and requires the canonical report to match the in-process
// run byte for byte. This is the no-shared-memory case: the only
// things the two mirrors have in common are the spec (shipped in the
// handshake) and the socket.
func TestRemoteTwoProcessBitIdentical(t *testing.T) {
	sp := exampleSpecs(t)["quickstart"]
	v := remoteVariant(t, sp, 1)
	want, wantRep := runSpec(t, v, nil)

	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDomainServe$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "LISTENING "); ok {
			addr = a
			break
		}
		if strings.HasPrefix(line, "HELPER_ERR") {
			t.Fatalf("server process: %s", line)
		}
	}
	if addr == "" {
		t.Fatalf("server process never announced an address: %v", sc.Err())
	}
	// Drain the rest of the child's output in the background so it
	// cannot block on a full pipe.
	drained := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
		drained <- rest.String()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := remote.Run(ctx, addr, v, remote.RunOptions{})
	if err != nil {
		t.Fatalf("client mirror against server process: %v", err)
	}
	if !bytes.Equal(res.View, want) {
		t.Errorf("two-process report diverged\nremote: %s\nlocal:  %s", res.View, want)
	}
	if res.Report.Channel != wantRep.Channel {
		t.Errorf("two-process channel stats = %+v, want %+v", res.Report.Channel, wantRep.Channel)
	}
	out := <-drained // pipe EOF precedes Wait, which closes it
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server process exited with error: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "HELPER_OK") {
		t.Fatalf("server process never confirmed a clean session:\n%s", out)
	}
}
