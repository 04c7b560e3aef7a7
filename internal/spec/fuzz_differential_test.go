// Cross-transport differential fuzzing. This file is package spec_test
// (not spec) so it can drive the remote runner — remote imports spec,
// so the differential must sit outside the package to avoid a cycle.
package spec_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"coemu/internal/channel"
	"coemu/internal/core"
	"coemu/internal/remote"
	"coemu/internal/spec"
)

// fuzzCycleCap bounds generated runs so one fuzz input stays cheap:
// long enough to reach flush, report-exchange and rollback traffic,
// short enough for thousands of executions per smoke run.
const fuzzCycleCap = 1200

// FuzzRemoteDifferential feeds fuzzer-grown spec documents through
// both transports: an in-process wire-codec run over channel.Queues
// and a mirrored pair of engines over a real loopback TCP socket. For
// every valid spec the two must agree — byte-identical canonical
// report JSON on success, and errors on both paths when the spec
// compiles but cannot run. The transport layer must never be the thing
// that decides a run's outcome.
func FuzzRemoteDifferential(f *testing.F) {
	if paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "spec.json")); err == nil {
		for _, p := range paths {
			if data, err := os.ReadFile(p); err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte(`{
	  "design": {
	    "masters": [{"name": "m", "domain": "acc",
	      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x1000"},
	                    "write": true, "burst": "INCR4", "gap": 3}}],
	    "slaves": [{"name": "s", "domain": "sim", "kind": "sram",
	      "region": {"lo": 0, "hi": "0x2000"}}]
	  },
	  "run": {"mode": "conservative", "cycles": 300}
	}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := spec.Parse(data)
		if err != nil {
			return // invalid documents may be rejected freely
		}
		// Host-side guardrails. Cycles are capped for speed; the timeout
		// and fault plan are cleared so the differential compares the
		// transports, not the chaos layer (remote_chaos_test.go owns
		// that) or a wall-clock deadline racing two schedulers.
		if sp.Run.Cycles > fuzzCycleCap {
			sp.Run.Cycles = fuzzCycleCap
		}
		sp.Run.Timeout = ""
		sp.Run.FaultPlan = nil

		d, cfg, err := sp.Compile()
		if err != nil {
			return // uncompilable specs never reach a transport
		}
		cfg.Transport = channel.NewQueues()
		eng, err := core.NewEngine(d, cfg)
		if err != nil {
			return // unrunnable configs never reach a transport
		}
		var localView []byte
		rep, localErr := eng.Run(sp.Run.Cycles)
		if localErr == nil {
			localView, err = remote.CanonicalView(rep)
			if err != nil {
				t.Fatalf("canonical view: %v", err)
			}
		}

		res, err := remote.Pair(context.Background(), sp, remote.RunOptions{}, remote.ServeOptions{})
		if err != nil {
			t.Fatalf("socket pair harness died: %v\nspec: %s", err, data)
		}

		if localErr != nil {
			// The modeled run fails in-process; the mirrored runs must
			// fail too, not invent a result over the socket.
			if res.ClientErr == nil || res.ServerErr == nil {
				t.Fatalf("in-process run failed (%v) but remote run succeeded (client %v, server %v)",
					localErr, res.ClientErr, res.ServerErr)
			}
			return
		}
		if res.ClientErr != nil || res.ServerErr != nil {
			t.Fatalf("in-process run succeeded but remote run failed: client %v, server %v\nspec: %s",
				res.ClientErr, res.ServerErr, data)
		}
		if !bytes.Equal(res.Client.View, localView) {
			t.Fatalf("client mirror diverged from in-process run\nremote: %s\nlocal:  %s", res.Client.View, localView)
		}
		if !bytes.Equal(res.ServerView, localView) {
			t.Fatalf("serving mirror diverged from in-process run\nremote: %s\nlocal:  %s", res.ServerView, localView)
		}
	})
}
