// Package remote runs cross-process co-emulation: each side of the
// simulator–accelerator split hosts the full deterministic engine on
// the identical compiled spec, wired together by a mirrored tcpchan
// transport (see that package for the lockstep protocol). The spec
// travels in the connect handshake, so the serving side is
// spec-agnostic: `coemud -domain-serve` hosts whatever system a client
// dials in with, after verifying the canonical spec hash.
//
// Both mirrors finish by exchanging the SHA-256 of their canonical
// report JSON; any divergence the engine's own checks missed fails the
// run here. The modeled run is bit-identical to an in-process one —
// the differential suites at the repo root pin that across every
// example spec, under chaos and under fuzz.
package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"coemu/internal/channel/tcpchan"
	"coemu/internal/core"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/trace"
)

// sumTimeout bounds the end-of-run report digest exchange.
const sumTimeout = 15 * time.Second

// Result is the client side's outcome of one remote run.
type Result struct {
	Report *core.Report
	// View is the canonical report JSON (the byte string the
	// differential suites compare and the digest exchange hashes).
	View      []byte
	Transport tcpchan.Stats
	// Events are the transport's trace events (connects, window replays,
	// reconnects), sequence-indexed.
	Events []trace.Event
}

// RunOptions tunes the client endpoint.
type RunOptions struct {
	// Tracer optionally records engine protocol events, exactly as an
	// in-process run's Config.Tracer would.
	Tracer *trace.Recorder
}

// ServeOptions tunes the serving endpoint.
type ServeOptions struct {
	// Once serves a single session and returns its error instead of
	// accepting forever.
	Once bool
	// OnSession observes each finished session (metrics, logging).
	OnSession func(SessionInfo)
	// Logf, when non-nil, receives serve-loop progress lines.
	Logf func(format string, args ...any)
}

// SessionInfo summarizes one served session.
type SessionInfo struct {
	Hash      string
	Err       error
	Transport tcpchan.Stats
	Report    *core.Report
	// View is the canonical report JSON of the serving mirror.
	View []byte
}

// CanonicalView marshals the canonical report JSON both mirrors
// compare byte-for-byte.
func CanonicalView(rep *core.Report) ([]byte, error) {
	return json.Marshal(service.NewReportView(rep))
}

// prepare normalizes sp and derives the handshake identity.
func prepare(sp *spec.Spec) (*spec.Spec, string, []byte, error) {
	n, err := sp.Normalized()
	if err != nil {
		return nil, "", nil, err
	}
	hash, err := n.CanonicalHash()
	if err != nil {
		return nil, "", nil, err
	}
	meta, err := json.Marshal(n)
	if err != nil {
		return nil, "", nil, err
	}
	return n, hash, meta, nil
}

// runEngine compiles sp, runs the engine over tr, and cross-checks the
// canonical report digest with the peer mirror.
func runEngine(ctx context.Context, sp *spec.Spec, tr *tcpchan.Transport, tracer *trace.Recorder) (*core.Report, []byte, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, nil, err
	}
	cfg.Transport = tr
	cfg.Tracer = tracer
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := eng.RunContext(ctx, sp.Run.Cycles)
	if err != nil {
		return nil, nil, err
	}
	view, err := CanonicalView(rep)
	if err != nil {
		return nil, nil, err
	}
	sum := sha256.Sum256(view)
	peer, err := tr.ExchangeSum(sum[:], sumTimeout)
	if err != nil {
		return rep, view, fmt.Errorf("remote: report cross-check: %w", err)
	}
	if !bytes.Equal(peer, sum[:]) {
		return rep, view, fmt.Errorf("remote: mirrored runs diverged: local report digest %x, peer %x", sum[:8], peer[:8])
	}
	return rep, view, nil
}

// Run drives sp against a domain host at addr and returns the local
// (client-mirror) report. The client takes the simulator role; the
// host runs the accelerator-authoritative mirror of the same spec.
func Run(ctx context.Context, addr string, sp *spec.Spec, o RunOptions) (*Result, error) {
	n, hash, meta, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	tr, err := tcpchan.Dial(addr, tcpchan.Options{Role: tcpchan.RoleSim, Hash: hash, Meta: meta})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	rep, view, err := runEngine(ctx, n, tr, o.Tracer)
	if err != nil {
		return nil, err
	}
	return &Result{
		Report: rep, View: view,
		Transport: tr.Stats(), Events: tr.TraceEvents(),
	}, nil
}

// VerifyMeta is the accept-side handshake check: the dialer's spec
// blob must parse, validate, and hash to the announced canonical hash.
func VerifyMeta(meta []byte, hash string) error {
	sp, err := spec.Parse(meta)
	if err != nil {
		return fmt.Errorf("remote: handshake spec: %w", err)
	}
	n, err := sp.Normalized()
	if err != nil {
		return err
	}
	h, err := n.CanonicalHash()
	if err != nil {
		return err
	}
	if h != hash {
		return fmt.Errorf("remote: handshake hash %s does not match spec (%s)", hash, h)
	}
	return nil
}

// Serve hosts the accelerator domain on l: each accepted session ships
// a spec in its handshake, runs the accelerator-authoritative mirror
// of it, and cross-checks the final report with the client. Returns
// when ctx is canceled or the listener dies (or after one session with
// o.Once).
func Serve(ctx context.Context, l *tcpchan.Listener, o ServeOptions) error {
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		tr, meta, err := l.Accept(tcpchan.Options{Role: tcpchan.RoleAcc, VerifyMeta: VerifyMeta})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		info := serveSession(ctx, tr, meta)
		tr.Close()
		if info.Err != nil {
			logf("session %s failed: %v", info.Hash, info.Err)
		} else {
			logf("session %s: %d cycles, perf %.0f cyc/s",
				info.Hash, info.Report.Cycles, info.Report.Perf())
		}
		if o.OnSession != nil {
			o.OnSession(info)
		}
		if o.Once {
			return info.Err
		}
	}
}

// serveSession runs one accepted session to completion.
func serveSession(ctx context.Context, tr *tcpchan.Transport, meta []byte) SessionInfo {
	var info SessionInfo
	sp, err := spec.Parse(meta)
	if err != nil {
		info.Err = err
		return info
	}
	n, err := sp.Normalized()
	if err != nil {
		info.Err = err
		return info
	}
	info.Hash, _ = n.CanonicalHash()
	rep, view, err := runEngine(ctx, n, tr, nil)
	info.Report, info.View, info.Err = rep, view, err
	info.Transport = tr.Stats()
	return info
}

// PairResult is the outcome of Pair: both mirrors' reports and errors,
// for differential tests that need the two sides of one run.
type PairResult struct {
	Client    *Result
	ClientErr error

	ServerReport *core.Report
	ServerView   []byte
	ServerErr    error
	ServerStats  tcpchan.Stats
}

// Pair runs sp across both roles of a real TCP socket pair inside this
// process: a serving mirror on a loopback listener and a client mirror
// dialed into it. It is the in-binary cross-process harness the
// differential and fuzz suites drive; true two-process coverage comes
// from the subprocess cases layered on top.
func Pair(ctx context.Context, sp *spec.Spec, client RunOptions, server ServeOptions) (*PairResult, error) {
	l, err := tcpchan.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	server.Once = true
	sessions := make(chan SessionInfo, 1)
	prev := server.OnSession
	server.OnSession = func(info SessionInfo) {
		if prev != nil {
			prev(info)
		}
		sessions <- info
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, l, server) }()

	res := &PairResult{}
	res.Client, res.ClientErr = Run(ctx, l.Addr().String(), sp, client)
	select {
	case info := <-sessions:
		res.ServerReport, res.ServerView, res.ServerErr = info.Report, info.View, info.Err
		res.ServerStats = info.Transport
	case <-time.After(sumTimeout + 5*time.Second):
		return nil, fmt.Errorf("remote: serving mirror never finished")
	}
	<-serveErr
	return res, nil
}
