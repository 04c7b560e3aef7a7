// Package spec provides a declarative, JSON-serializable description of
// a complete co-emulation run: the SoC design (masters with workload
// generators, slaves with address regions, domain placement) plus the
// engine configuration and cycle budget.
//
// A Spec is the wire format of the system: it is what cmd/coemud
// accepts over HTTP, what cmd/coemu and cmd/sweep load with -spec, and
// what the result cache keys on. Where the Go API builds designs from
// closures (coemu.MasterSpec.NewGen, coemu.SlaveSpec.New), a Spec names
// component kinds from a registry of the built-in IP blocks and
// workload generators, so new scenarios need a JSON file rather than a
// recompile.
//
// Determinism is the load-bearing property: Normalized fills every
// default and strips every field the named kinds do not consume, so two
// specs describing the same run byte-for-byte share one CanonicalHash —
// the key under which the job service deduplicates and caches runs.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"coemu/internal/core"
	"coemu/internal/faultplan"
)

// Addr is a bus address. It unmarshals from either a JSON number or a
// string ("0x40000" or decimal), and always marshals as a number so the
// canonical encoding is unique.
type Addr uint64

// UnmarshalJSON implements json.Unmarshaler.
func (a *Addr) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return fmt.Errorf("spec: address %q: %w", s, err)
		}
		*a = Addr(v)
		return nil
	}
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*a = Addr(v)
	return nil
}

// Window is a half-open address range [Lo, Hi).
type Window struct {
	Lo Addr `json:"lo"`
	Hi Addr `json:"hi"`
}

// Generator describes one workload generator by registry kind. Only the
// fields the kind consumes are meaningful; Normalized zeroes the rest.
type Generator struct {
	// Kind selects the generator builder: "stream", "dma", "cpu" or
	// "script" (see GeneratorKinds).
	Kind string `json:"kind"`

	// stream: a unidirectional burst run through Window.
	Window *Window `json:"window,omitempty"`
	Write  bool    `json:"write,omitempty"`
	Burst  string  `json:"burst,omitempty"` // SINGLE, INCR, WRAP4/8/16, INCR4/8/16
	Bits   int     `json:"bits,omitempty"`  // transfer width: 8, 16 or 32 (default 32)
	Len    int     `json:"len,omitempty"`   // beat count for INCR
	Gap    int     `json:"gap,omitempty"`   // idle cycles between transfers
	Max    int64   `json:"max,omitempty"`   // transfer bound (0 = unbounded)

	// dma: alternating read-from-Src / write-to-Dst bursts.
	Src *Window `json:"src,omitempty"`
	Dst *Window `json:"dst,omitempty"`

	// cpu: randomized traffic over Windows.
	Windows    []Window `json:"windows,omitempty"`
	WriteRatio float64  `json:"write_ratio,omitempty"`
	MaxGap     int      `json:"max_gap,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`

	// script: an inline transfer script in workload.ParseScript format.
	Script string `json:"script,omitempty"`
}

// Master declares one bus master.
type Master struct {
	Name      string    `json:"name"`
	Domain    string    `json:"domain"` // "sim" or "acc"
	Generator Generator `json:"generator"`
	// BusyEvery inserts a BUSY cycle before every n-th burst beat.
	BusyEvery int `json:"busy_every,omitempty"`
	// Vars is the rollback-variable weight (0 uses the engine default).
	Vars int `json:"vars,omitempty"`
}

// Slave declares one bus slave by registry kind. wait_first/wait_next
// double as the remote-side response-predictor profile, exactly like
// coemu.SlaveSpec.WaitFirst/WaitNext.
type Slave struct {
	Name   string `json:"name"`
	Domain string `json:"domain"` // "sim" or "acc"
	Region Window `json:"region"`
	// Kind selects the slave builder: "sram", "memory", "jitter",
	// "retry", "split", "error" or "irq" (see SlaveKinds).
	Kind string `json:"kind"`

	// memory/jitter/retry/split: deterministic wait profile. For
	// "memory" these are also the constructor's wait parameters.
	WaitFirst int `json:"wait_first,omitempty"`
	WaitNext  int `json:"wait_next,omitempty"`

	// jitter: real latency is Base plus pseudo-random extra in
	// [0, Spread] seeded by Seed.
	Base   int    `json:"base,omitempty"`
	Spread int    `json:"spread,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// retry/split: Waits per beat; retry RETRYs every RetryEvery-th
	// beat, split SPLITs every SplitEvery-th beat and releases the
	// parked master ReleaseAfter cycles later.
	Waits        int `json:"waits,omitempty"`
	RetryEvery   int `json:"retry_every,omitempty"`
	SplitEvery   int `json:"split_every,omitempty"`
	ReleaseAfter int `json:"release_after,omitempty"`

	// irq: the interrupt line bit the peripheral owns (doubles as the
	// design's IRQ mask for the line).
	IRQMask uint32 `json:"irq_mask,omitempty"`

	// Vars is the rollback-variable weight (0 uses the engine default).
	Vars int `json:"vars,omitempty"`
}

// DesignSpec is the serializable counterpart of coemu.Design.
type DesignSpec struct {
	Masters []Master `json:"masters"`
	Slaves  []Slave  `json:"slaves"`
	// OwnsDefault selects the domain driving default-slave replies
	// ("sim" by default).
	OwnsDefault string `json:"owns_default,omitempty"`
}

// Run is the serializable counterpart of coemu.Config plus the cycle
// budget.
type Run struct {
	// Mode is "conservative", "sla", "als" or "auto".
	Mode string `json:"mode"`
	// Cycles is the target-cycle budget of the run.
	Cycles int64 `json:"cycles"`

	SimSpeed     float64 `json:"sim_speed,omitempty"` // cycles/s, default 1e6
	AccSpeed     float64 `json:"acc_speed,omitempty"` // cycles/s, default 1e7
	LOBDepth     int     `json:"lob_depth,omitempty"` // words, default 64
	Accuracy     float64 `json:"accuracy,omitempty"`  // (0,1]; 0 and 1 both mean organic
	FaultSeed    uint64  `json:"fault_seed,omitempty"`
	RollbackVars int     `json:"rollback_vars,omitempty"`

	// CycleBatch caps the engine's predicted-quiescence cycle
	// batching (host-side fast path; modeled metrics are bit-identical
	// for every setting). 0 selects the engine default (64); 1
	// disables batching.
	CycleBatch int `json:"cycle_batch,omitempty"`

	PredictIdle        bool    `json:"predict_idle,omitempty"`
	PredictBurstStarts bool    `json:"predict_burst_starts,omitempty"`
	Adaptive           bool    `json:"adaptive,omitempty"`
	AdaptiveThreshold  float64 `json:"adaptive_threshold,omitempty"`
	PaperStrict        bool    `json:"paper_strict,omitempty"`

	KeepTrace     bool `json:"keep_trace,omitempty"`
	CheckProtocol bool `json:"check_protocol,omitempty"`

	// Timeout is the per-job wall-clock deadline as a Go duration
	// string ("30s", "2m"). Empty means no deadline. It bounds host
	// execution, not the modeled run, so it is a host-side knob:
	// excluded from the canonical hash like CycleBatch.
	Timeout string `json:"timeout,omitempty"`
	// FaultPlan configures seeded chaos-testing fault injection for
	// this run (see faultplan). Host-side test harness configuration:
	// excluded from the canonical hash — a run that survives its
	// faults produces bit-identical results to the plan-free run.
	FaultPlan *faultplan.Plan `json:"fault_plan,omitempty"`

	// Trace attaches the cycle-granular protocol tracer to the run
	// (run-ahead spans, rollbacks, batch commits — see internal/trace).
	// Pure host-side observability: the modeled run is bit-identical
	// with and without it, so it is excluded from the canonical hash
	// like CycleBatch.
	Trace bool `json:"trace,omitempty"`
	// TraceRing caps the tracer's event ring (events retained; the
	// oldest are overwritten past the cap). 0 selects the tracer
	// default. Host-side knob, excluded from the canonical hash.
	TraceRing int `json:"trace_ring,omitempty"`

	// MeasuredLatency asks a cross-process run (coemu -remote-domain)
	// to sample the real link round trip (handshake + ping/pong) and
	// report a performance estimate with the modeled Tch replaced by
	// the measured latency — the paper's prediction packetizing masking
	// a physical channel instead of a modeled one. Pure host-side
	// observability: the canonical report is bit-identical with and
	// without it, so it is excluded from the canonical hash like
	// Trace/TraceRing. In-process runs ignore it.
	MeasuredLatency bool `json:"measured_latency,omitempty"`
}

// Spec is a complete declarative co-emulation run.
type Spec struct {
	// Name is a human label. It does not influence the run and is
	// excluded from the canonical hash.
	Name   string     `json:"name,omitempty"`
	Design DesignSpec `json:"design"`
	Run    Run        `json:"run"`
}

// Parse decodes and validates a JSON spec. Unknown fields are errors so
// a typo cannot silently change a run.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("spec: parse: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// parseDomain resolves a domain name.
func parseDomain(s string) (uint8, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sim":
		return 0, nil
	case "acc":
		return 1, nil
	default:
		return 0, fmt.Errorf("unknown domain %q (want \"sim\" or \"acc\")", s)
	}
}

// modeNames maps run-mode names to core.Mode ordinals (kept in sync by
// TestModeNames in this package).
var modeNames = map[string]uint8{
	"conservative": 0,
	"sla":          1,
	"als":          2,
	"auto":         3,
}

// Validate checks the spec structurally: every named kind exists, its
// required parameters are present and legal, domains and mode parse,
// and the cycle budget is positive. Cross-component checks (duplicate
// names, overlapping IRQ lines) are performed by Compile via
// core.Design.Validate.
func (s *Spec) Validate() error {
	if len(s.Design.Masters) == 0 {
		return fmt.Errorf("spec: design has no masters")
	}
	for i := range s.Design.Masters {
		m := &s.Design.Masters[i]
		if m.Name == "" {
			return fmt.Errorf("spec: master %d has no name", i)
		}
		if _, err := parseDomain(m.Domain); err != nil {
			return fmt.Errorf("spec: master %q: %w", m.Name, err)
		}
		if m.BusyEvery < 0 || m.Vars < 0 {
			return fmt.Errorf("spec: master %q: negative busy_every or vars", m.Name)
		}
		k, ok := generatorKinds[m.Generator.Kind]
		if !ok {
			return fmt.Errorf("spec: master %q: unknown generator kind %q (have %s)",
				m.Name, m.Generator.Kind, strings.Join(GeneratorKinds(), ", "))
		}
		if err := k.validate(&m.Generator); err != nil {
			return fmt.Errorf("spec: master %q: %w", m.Name, err)
		}
	}
	for i := range s.Design.Slaves {
		sl := &s.Design.Slaves[i]
		if sl.Name == "" {
			return fmt.Errorf("spec: slave %d has no name", i)
		}
		if _, err := parseDomain(sl.Domain); err != nil {
			return fmt.Errorf("spec: slave %q: %w", sl.Name, err)
		}
		if sl.Region.Hi <= sl.Region.Lo {
			return fmt.Errorf("spec: slave %q: empty region [%#x, %#x)", sl.Name, uint64(sl.Region.Lo), uint64(sl.Region.Hi))
		}
		if sl.Region.Hi > 1<<32 {
			return fmt.Errorf("spec: slave %q: region end %#x beyond the 32-bit address space", sl.Name, uint64(sl.Region.Hi))
		}
		if sl.Vars < 0 {
			return fmt.Errorf("spec: slave %q: negative vars", sl.Name)
		}
		k, ok := slaveKinds[sl.Kind]
		if !ok {
			return fmt.Errorf("spec: slave %q: unknown slave kind %q (have %s)",
				sl.Name, sl.Kind, strings.Join(SlaveKinds(), ", "))
		}
		if err := k.validate(sl); err != nil {
			return fmt.Errorf("spec: slave %q: %w", sl.Name, err)
		}
	}
	if s.Design.OwnsDefault != "" {
		if _, err := parseDomain(s.Design.OwnsDefault); err != nil {
			return fmt.Errorf("spec: owns_default: %w", err)
		}
	}
	r := &s.Run
	if _, ok := modeNames[strings.ToLower(strings.TrimSpace(r.Mode))]; !ok {
		return fmt.Errorf("spec: unknown mode %q (want conservative, sla, als or auto)", r.Mode)
	}
	if r.Cycles <= 0 {
		return fmt.Errorf("spec: run.cycles must be positive, got %d", r.Cycles)
	}
	if r.SimSpeed < 0 || r.AccSpeed < 0 || r.LOBDepth < 0 || r.RollbackVars < 0 || r.CycleBatch < 0 || r.TraceRing < 0 {
		return fmt.Errorf("spec: negative run parameter")
	}
	for _, sp := range []struct {
		field string
		v     float64
	}{{"sim_speed", r.SimSpeed}, {"acc_speed", r.AccSpeed}} {
		// The engine charges 1e9/speed ns per cycle as a time.Duration.
		if sp.v > 0 && 1e9/sp.v >= math.MaxInt64 {
			return fmt.Errorf("spec: run.%s %v cycles/s is too slow: one cycle overflows the engine's time.Duration", sp.field, sp.v)
		}
	}
	if r.Accuracy < 0 || r.Accuracy > 1 {
		return fmt.Errorf("spec: accuracy %v outside [0, 1]", r.Accuracy)
	}
	if r.AdaptiveThreshold < 0 || r.AdaptiveThreshold > 1 {
		return fmt.Errorf("spec: adaptive_threshold %v outside [0, 1]", r.AdaptiveThreshold)
	}
	if r.Timeout != "" {
		d, err := time.ParseDuration(r.Timeout)
		if err != nil {
			return fmt.Errorf("spec: run.timeout: %w", err)
		}
		if d <= 0 {
			return fmt.Errorf("spec: run.timeout %q must be positive", r.Timeout)
		}
	}
	if err := r.FaultPlan.Validate(); err != nil {
		return fmt.Errorf("spec: run.fault_plan: %w", err)
	}
	return nil
}

// JobTimeout returns the parsed per-job deadline, or 0 when the spec
// sets none. It assumes a validated spec; an unparsable duration
// (impossible after Validate) also returns 0.
func (r *Run) JobTimeout() time.Duration {
	if r.Timeout == "" {
		return 0
	}
	d, err := time.ParseDuration(r.Timeout)
	if err != nil || d <= 0 {
		return 0
	}
	return d
}

// Normalized returns a validated copy with every default filled in and
// every field not consumed by the named kinds zeroed, so that all specs
// describing the same run normalize to the same value. Name is
// preserved (CanonicalHash strips it separately).
func (s *Spec) Normalized() (*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := *s
	n.Design.Masters = make([]Master, len(s.Design.Masters))
	copy(n.Design.Masters, s.Design.Masters)
	n.Design.Slaves = make([]Slave, len(s.Design.Slaves))
	copy(n.Design.Slaves, s.Design.Slaves)

	for i := range n.Design.Masters {
		m := &n.Design.Masters[i]
		m.Domain = strings.ToLower(strings.TrimSpace(m.Domain))
		m.Generator = generatorKinds[m.Generator.Kind].canon(m.Generator)
	}
	for i := range n.Design.Slaves {
		sl := &n.Design.Slaves[i]
		sl.Domain = strings.ToLower(strings.TrimSpace(sl.Domain))
		*sl = slaveKinds[sl.Kind].canon(*sl)
	}
	if n.Design.OwnsDefault == "" {
		n.Design.OwnsDefault = "sim"
	} else {
		n.Design.OwnsDefault = strings.ToLower(strings.TrimSpace(n.Design.OwnsDefault))
	}

	r := &n.Run
	r.Mode = strings.ToLower(strings.TrimSpace(r.Mode))
	if r.SimSpeed == 0 {
		r.SimSpeed = 1e6
	}
	if r.AccSpeed == 0 {
		r.AccSpeed = 1e7
	}
	if r.LOBDepth == 0 {
		r.LOBDepth = 64
	}
	if r.CycleBatch == 0 {
		r.CycleBatch = core.DefaultCycleBatch
	}
	if r.Accuracy == 0 {
		r.Accuracy = 1
	}
	if r.Accuracy == 1 {
		// No fault injector: the seed cannot influence the run.
		r.FaultSeed = 0
	}
	if r.Adaptive {
		if r.AdaptiveThreshold == 0 {
			r.AdaptiveThreshold = 0.35
		}
	} else {
		r.AdaptiveThreshold = 0
	}
	return &n, nil
}

// CanonicalHash returns the deterministic identity of the run the spec
// describes: a sha256 over the canonical JSON encoding of the
// normalized spec with the non-semantic Name stripped. Two specs with
// equal hashes compile to runs with bit-identical reports, which is
// what the job service's result cache keys on.
func (s *Spec) CanonicalHash() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	n.Name = ""
	// CycleBatch is a host-side knob: the engine's batching fast path
	// produces bit-identical reports at every setting (pinned by the
	// batch differential tests), so it must not split the result
	// cache. It hashes as its canonical default (it has been part of
	// the canonical encoding since it existed).
	n.Run.CycleBatch = core.DefaultCycleBatch
	// Timeout and FaultPlan are host-side too: a deadline bounds host
	// execution without touching modeled results, and fault injection
	// is a chaos harness whose surviving runs are bit-identical to
	// fault-free ones. Both hash as absent so a chaos-tested or
	// deadline-bounded run shares its cache entry with the plain run.
	n.Run.Timeout = ""
	n.Run.FaultPlan = nil
	// Trace and TraceRing attach a host-side observer whose runs are
	// bit-identical to untraced ones (pinned by the tracer differential
	// test). Both hash as absent so a traced run shares its cache entry
	// with the plain run.
	n.Run.Trace = false
	n.Run.TraceRing = 0
	// MeasuredLatency attaches host-side link measurement to a remote
	// run; the canonical report is unaffected (the remote differential
	// suite pins it), so it hashes as absent too.
	n.Run.MeasuredLatency = false
	b, err := json.Marshal(n)
	if err != nil {
		return "", fmt.Errorf("spec: canonical encode: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
