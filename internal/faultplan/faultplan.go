// Package faultplan defines seeded, deterministic fault-injection
// plans for chaos-testing the co-emulation daemon. A plan is a small
// JSON document naming fault probabilities at two layers — the
// job-service workers and the persistent result store — plus one seed
// that makes every injected fault reproducible. `coemud -fault-plan`
// arms one daemon-wide.
//
// Plans are host-side test harness configuration, never part of a
// run's semantics: a run that survives its faults must produce
// bit-identical results to the same run with no plan at all. All
// injection is off by default; a nil plan (or nil per-layer section)
// injects nothing.
//
// Grammar (all fields optional, probabilities in [0,1]):
//
//	{
//	  "seed": 42,
//	  "service": {"worker_panic": 0.2, "slow_run": 0.2, "slow_delay_ms": 50},
//	  "store":   {"write_error": 0.1, "torn_write": 0.1}
//	}
package faultplan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Plan is one seeded fault-injection plan. The zero value (and nil)
// injects no faults anywhere.
type Plan struct {
	// Seed seeds every fault decision the plan drives. Layers derive
	// their own sub-streams from it (see Mix), so the same plan injects
	// the same faults at the same points run after run.
	Seed uint64 `json:"seed,omitempty"`
	// Service configures service-worker faults; nil disables them.
	Service *ServiceFault `json:"service,omitempty"`
	// Store configures result-store write faults; nil disables them.
	Store *StoreFault `json:"store,omitempty"`
}

// ServiceFault configures fault injection in the job-service workers.
type ServiceFault struct {
	// WorkerPanic is the per-job probability of panicking the worker
	// mid-run. The service recovers, fails the job, and keeps serving.
	WorkerPanic float64 `json:"worker_panic,omitempty"`
	// SlowRun is the per-job probability of sleeping SlowDelayMS
	// before the run starts, exercising job deadlines and client
	// timeouts.
	SlowRun float64 `json:"slow_run,omitempty"`
	// SlowDelayMS is the injected slow-run delay, in milliseconds.
	// 0 disables slow-run injection even if SlowRun > 0.
	SlowDelayMS int `json:"slow_delay_ms,omitempty"`
}

// StoreFault configures fault injection in the persistent result
// store's write path.
type StoreFault struct {
	// WriteError is the per-Put probability of failing the write with
	// an injected error before touching the disk.
	WriteError float64 `json:"write_error,omitempty"`
	// TornWrite is the per-Put probability of persisting a truncated
	// entry — the torn write a crash mid-write would leave without
	// atomic renames. The store's on-read content-hash verification
	// must quarantine it instead of serving it.
	TornWrite float64 `json:"torn_write,omitempty"`
}

// Parse decodes and validates a JSON fault plan. Unknown fields are
// rejected so a typoed probability cannot silently disable a fault.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultplan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses the JSON fault plan at path.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultplan: %w", err)
	}
	return Parse(data)
}

// Validate checks every probability is in [0,1] and every duration
// bound is non-negative. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if s := p.Service; s != nil {
		if err := probs("service", "worker_panic", s.WorkerPanic, "slow_run", s.SlowRun); err != nil {
			return err
		}
		if s.SlowDelayMS < 0 {
			return fmt.Errorf("faultplan: service.slow_delay_ms must be >= 0, got %d", s.SlowDelayMS)
		}
	}
	if s := p.Store; s != nil {
		if err := probs("store", "write_error", s.WriteError, "torn_write", s.TornWrite); err != nil {
			return err
		}
	}
	return nil
}

// probs validates alternating name/value probability pairs for one
// plan section.
func probs(section string, pairs ...any) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		name, v := pairs[i].(string), pairs[i+1].(float64)
		if v < 0 || v > 1 {
			return fmt.Errorf("faultplan: %s.%s must be a probability in [0,1], got %v", section, name, v)
		}
	}
	return nil
}

// Mix derives a sub-stream seed from a plan seed and a salt (a layer
// tag) with a splitmix64 finalizer, so layers draw independent fault
// sequences from one plan seed.
func Mix(seed, salt uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(salt+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
