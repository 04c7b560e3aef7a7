package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// EventKind classifies one engine trace event. The tracer records the
// run-ahead protocol at cycle granularity: spans for the three cycle
// loops (conservative stretches, leader run-ahead, lagger follow-up)
// and instants for the decisions between them (mispredictions,
// rollbacks, batch commits, channel flushes).
type EventKind uint8

// Engine event kinds.
const (
	// EvConservative is a span of conservatively synchronized cycles.
	EvConservative EventKind = iota
	// EvRunAhead is a leader's optimistic run-ahead span (N committed
	// cycles against predictions); Domain is the leader.
	EvRunAhead
	// EvFollowUp is the lagger's replay span of a flushed LOB; Domain
	// is the lagger.
	EvFollowUp
	// EvRollForth is the leader's replay span after a rollback (N
	// re-executed cycles); Domain is the leader.
	EvRollForth
	// EvMispredict marks one checked prediction that failed; Arg is 1
	// when the miss was fault-injected, 0 when organic.
	EvMispredict
	// EvRollback marks a leader state restore; Arg is the rollback
	// depth (cycles discarded and replayed).
	EvRollback
	// EvBatchCommit marks a predicted-quiescence batched advance of N
	// cycles taken in one step.
	EvBatchCommit
	// EvFlush marks a LOB flush crossing the channel; Arg is the
	// payload size in words, Domain the sending leader.
	EvFlush
	// EvSync marks a conservative synchronization point opening a
	// transition boundary (the engine chose a leader); Domain is the
	// leader about to run ahead.
	EvSync
	// EvStore marks a rollback-state store (snapshot) by the leader.
	EvStore
	// EvTransportConnect marks a remote transport establishing (or
	// accepting) its session; Arg is the connection generation (0 for
	// the first connect). Transport events carry the frame sequence
	// number in Cycle — host wall time is not cycle time, and the
	// sequence axis keeps the export deterministic.
	EvTransportConnect
	// EvTransportRetransmit marks the retransmission window replayed on
	// a resumed connection; N is the number of frames re-sent.
	EvTransportRetransmit
	// EvTransportReconnect marks a connection loss healed by redial (or
	// re-accept); Arg is the new connection generation.
	EvTransportReconnect
)

// eventKindNames maps kinds to their wire names (stable: the Chrome
// trace export keys on them).
var eventKindNames = [...]string{
	EvConservative: "conservative",
	EvRunAhead:     "run_ahead",
	EvFollowUp:     "follow_up",
	EvRollForth:    "roll_forth",
	EvMispredict:   "mispredict",
	EvRollback:     "rollback",
	EvBatchCommit:  "batch_commit",
	EvFlush:        "flush",
	EvSync:         "sync",
	EvStore:        "store",

	EvTransportConnect:    "transport_connect",
	EvTransportRetransmit: "transport_retransmit",
	EvTransportReconnect:  "transport_reconnect",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one recorded engine event. Cycle is the committed
// target-cycle position the event belongs to, N the span length in
// cycles (0 for instant events), Domain the acting domain (0 sim,
// 1 acc, 255 none) and Arg a kind-specific payload (rollback depth,
// flush words, injected flag).
type Event struct {
	Cycle  int64
	N      int64
	Kind   EventKind
	Domain uint8
	Arg    int64
}

// NoDomain is the Event.Domain value for events not tied to a domain.
const NoDomain uint8 = 255

// BatchCommit phases carried in Event.Arg: which cycle loop took the
// batched step.
const (
	// BatchConservative marks a batched conservative stretch.
	BatchConservative int64 = iota
	// BatchRunAhead marks a batched leader run-ahead advance.
	BatchRunAhead
	// BatchFollowUp marks a batched lagger follow-up replay.
	BatchFollowUp
)

// Recorder is a fixed-capacity ring buffer of engine events. It is
// deliberately unsynchronized: the engine's cycle loop is
// single-threaded, and the only safe concurrent read is after the run
// finished (the service publishes completion under its mutex, which
// orders the reads). Record never allocates once the ring is built, so
// an enabled tracer adds no allocations to the engine hot path.
type Recorder struct {
	buf     []Event
	next    int   // write position
	n       int   // live events (≤ len(buf))
	dropped int64 // events overwritten after the ring wrapped
}

// DefaultRingSize is the event capacity used when a ring size of 0 is
// requested: large enough for the full event stream of the example
// runs, small enough (~3 MB) to be a per-job default.
const DefaultRingSize = 1 << 16

// NewRecorder creates a recorder with capacity ringSize (0 selects
// DefaultRingSize).
func NewRecorder(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Recorder{buf: make([]Event, ringSize)}
}

// Record appends one event, overwriting the oldest when the ring is
// full.
func (r *Recorder) Record(ev Event) {
	if r.n == len(r.buf) {
		r.dropped++
	} else {
		r.n++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events were overwritten after the ring
// wrapped.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns the retained events oldest first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// domainName renders an event's domain for export.
func domainName(d uint8) string {
	switch d {
	case 0:
		return "sim"
	case 1:
		return "acc"
	default:
		return ""
	}
}

// Chrome trace_event track ids: one lane per protocol phase so the
// run-ahead timeline reads top to bottom in Perfetto.
const (
	tidConservative = 0
	tidRunAhead     = 1
	tidFollowUp     = 2
	tidRollback     = 3
	tidChannel      = 4
	tidTransport    = 5
)

// chromeTracks names the Perfetto lanes emitted as thread_name
// metadata.
var chromeTracks = map[int]string{
	tidConservative: "conservative sync",
	tidRunAhead:     "run-ahead (leader)",
	tidFollowUp:     "follow-up (lagger)",
	tidRollback:     "rollback / roll-forth",
	tidChannel:      "channel",
	tidTransport:    "transport (frame seq)",
}

// WriteChromeTrace exports events in Chrome trace_event JSON array
// format, loadable directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The timeline is target-cycle time: 1 µs of trace
// time per target cycle, so span widths read as cycle counts.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	emit := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteByte('\n')
		b.Write(data)
		return nil
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := emit(meta{Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "coemu engine (target-cycle time)"}}); err != nil {
		return err
	}
	for tid := 0; tid < len(chromeTracks); tid++ {
		if err := emit(meta{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": chromeTracks[tid]}}); err != nil {
			return err
		}
	}
	type span struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	for _, ev := range events {
		s := span{Name: ev.Kind.String(), Cat: "engine", Ts: ev.Cycle, Pid: 0}
		if d := domainName(ev.Domain); d != "" {
			s.Args = map[string]any{"domain": d}
		}
		addArg := func(k string, v any) {
			if s.Args == nil {
				s.Args = map[string]any{}
			}
			s.Args[k] = v
		}
		switch ev.Kind {
		case EvConservative:
			s.Ph, s.Tid, s.Dur = "X", tidConservative, max64(ev.N, 1)
			addArg("cycles", ev.N)
		case EvRunAhead:
			s.Ph, s.Tid, s.Dur = "X", tidRunAhead, max64(ev.N, 1)
			addArg("cycles", ev.N)
		case EvFollowUp:
			s.Ph, s.Tid, s.Dur = "X", tidFollowUp, max64(ev.N, 1)
			addArg("cycles", ev.N)
		case EvRollForth:
			s.Ph, s.Tid, s.Dur = "X", tidRollback, max64(ev.N, 1)
			addArg("cycles", ev.N)
		case EvMispredict:
			s.Ph, s.Tid, s.S = "i", tidFollowUp, "t"
			addArg("injected", ev.Arg == 1)
		case EvRollback:
			s.Ph, s.Tid, s.S = "i", tidRollback, "t"
			addArg("depth", ev.Arg)
		case EvBatchCommit:
			// Batched cycles are already covered by their enclosing
			// span (conservative, run-ahead or follow-up); the instant
			// marks where a batch was taken in one step. Arg carries
			// the phase (see BatchPhase constants).
			s.Ph, s.S = "i", "t"
			switch ev.Arg {
			case BatchRunAhead:
				s.Tid = tidRunAhead
			case BatchFollowUp:
				s.Tid = tidFollowUp
			default:
				s.Tid = tidConservative
			}
			addArg("cycles", ev.N)
		case EvFlush:
			s.Ph, s.Tid, s.S = "i", tidChannel, "t"
			addArg("words", ev.Arg)
		case EvSync, EvStore:
			s.Ph, s.Tid, s.S = "i", tidRunAhead, "t"
		case EvTransportConnect, EvTransportReconnect:
			s.Ph, s.Tid, s.S = "i", tidTransport, "t"
			addArg("generation", ev.Arg)
		case EvTransportRetransmit:
			s.Ph, s.Tid, s.S = "i", tidTransport, "t"
			addArg("frames", ev.N)
		default:
			s.Ph, s.Tid, s.S = "i", tidConservative, "t"
		}
		if err := emit(s); err != nil {
			return err
		}
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// max64 returns the larger of a and b.
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
