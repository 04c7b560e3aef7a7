// Package rng provides a tiny deterministic pseudo-random number
// generator with snapshot support.
//
// Components of a leader domain must be perfectly replayable during
// roll-forth, including any randomized behavior (jittery slave latencies,
// randomized CPU traffic, forced-accuracy prediction faults). The
// standard library's math/rand sources cannot be snapshotted cheaply, so
// the engine uses this xorshift64* generator whose entire state is one
// word.
package rng

// Source is a snapshotable xorshift64* PRNG. The zero value is invalid;
// use New.
type Source struct {
	s uint64
}

// New returns a source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Source{s: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// SaveInto implements rollback.Snapshotter, recycling prev when
// it came from an earlier SaveInto of a source (boxing the raw
// uint64 state would heap-allocate on almost every save).
func (r *Source) SaveInto(prev any) any {
	p, ok := prev.(*uint64)
	if !ok {
		p = new(uint64)
	}
	*p = r.s
	return p
}

// Restore implements rollback.Snapshotter.
func (r *Source) Restore(v any) {
	s, ok := v.(*uint64)
	if !ok {
		panic("rng: bad snapshot type")
	}
	r.s = *s
}
