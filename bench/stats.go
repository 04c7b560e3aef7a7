package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample of xs (the mean of the two middle samples
// for an even count), NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// normRate and normTime apply the yardstick normalization: a host rate
// measured while the yardstick ran at y iterations per second is
// reported as the rate it would read at yNominal, a host time likewise.
// A slower host (smaller y) scales rates up and times down.
func normRate(raw, y float64) float64 { return raw * yNominal / y }

func normTime(raw, y float64) float64 { return raw * y / yNominal }

// protocolShare is the share of the end-to-end host time per committed
// cycle that the timed leaf calls do not account for: 1 − Σ(calls per
// committed cycle × ns per call) ÷ end-to-end ns per cycle. The rest is
// the engine's own protocol work (LOB, transition control, checks).
func protocolShare(callsPerCycle, nsPerCall []float64, e2eNsPerCycle float64) float64 {
	covered := 0.0
	for i := range callsPerCycle {
		covered += callsPerCycle[i] * nsPerCall[i]
	}
	return 1 - covered/e2eNsPerCycle
}
