package main

import (
	"slices"
	"time"
)

// yNominal is the yardstick rate (iterations per second) every
// normalized host metric is scaled to: the median yardstick rate, 1,792
// it/s rounded, of the benchmark's first 40 runs (ten seeds of each
// workload) on a 2-vCPU Intel Xeon at 2.0 GHz with go1.24. It is a fixed
// unit, not a calibration: changing it rescales every normalized
// number, so it never changes along with code.
const yNominal = 1800.0

// Yardstick shape. One iteration is a dependent walk over a 256 KiB
// table (cache-resident pointer chasing, ~10% of its time), three sorts
// of 2,048 ints (branchy compares, ~58%) and 12,288 lookups in a
// 4,096-entry map (hashing, ~32%).
const (
	yardTableSize = 1 << 16 // uint32 entries
	yardWalkSteps = 8192
	yardSortLen   = 2048
	yardSorts     = 3
	yardMapSize   = 4096
	yardLookups   = 3 * yardMapSize
)

// yardstick is a fixed, allocation-free CPU workload that the benchmark
// times between slices of real work. Host speed on a shared machine
// drifts with its neighbours; dividing a host rate by the yardstick's
// rate measured in the same process at nearly the same moment removes
// most of that drift. It deliberately imports nothing from coemu:
// normalizing by any coemu code path (RunReference, say) would cancel
// out every change to the code the two share.
//
// The mix was chosen on 25 minutes of one-second engine windows
// (stream-als and multimaster-auto designs, alternating) interleaved
// with candidate yardsticks: over 25 s blocks it cut the spread of the
// normalized engine rate to 0.06-0.10 (IQR/median, either half of the
// data), against 0.11-0.13 for a table walk plus one sort alone and
// 0.21-0.47 raw.
type yardstick struct {
	table     []uint32
	keys, buf []int
	m         map[uint32]uint32
	sink      uint32
	samples   []float64 // iterations per second, one per sample call
}

func newYardstick() *yardstick {
	y := &yardstick{
		table: make([]uint32, yardTableSize),
		keys:  make([]int, yardSortLen),
		buf:   make([]int, yardSortLen),
		m:     make(map[uint32]uint32, yardMapSize),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range y.table {
		y.table[i] = uint32(next())
	}
	for i := range y.keys {
		y.keys[i] = int(next() >> 1)
	}
	for i := uint32(0); i < yardMapSize; i++ {
		y.m[i*2654435761] = i
	}
	return y
}

// iterate runs one yardstick iteration.
func (y *yardstick) iterate() {
	idx, x := uint32(1), uint64(0x9E3779B97F4A7C15)
	for i := 0; i < yardWalkSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx = y.table[(idx^uint32(x))&(yardTableSize-1)]
	}
	for i := 0; i < yardSorts; i++ {
		copy(y.buf, y.keys)
		slices.Sort(y.buf)
	}
	for i := uint32(0); i < yardLookups; i++ {
		idx += y.m[(i%yardMapSize)*2654435761]
	}
	y.sink += idx + uint32(y.buf[yardSortLen/2])
}

// sample runs the yardstick for about d, records its rate and returns
// it.
func (y *yardstick) sample(d time.Duration) float64 {
	t0 := time.Now()
	for n := 1; ; n++ {
		y.iterate()
		if el := time.Since(t0); el >= d {
			rate := float64(n) / el.Seconds()
			y.samples = append(y.samples, rate)
			return rate
		}
	}
}

// median is the median sampled rate.
func (y *yardstick) median() float64 { return median(y.samples) }

// Yardstick cadence: one sample of yardSample after every yardEvery of
// timed work (5% overhead).
const (
	yardEvery  = time.Second
	yardSample = 50 * time.Millisecond
)

// phase is a run's timed phase. Its work is grouped into throughput
// windows of about yardEvery each, and every window is closed by a
// yardstick sample and normalized by the mean of the two samples that
// bracket it, so a host that slows down mid-run is corrected where it
// slowed rather than by a run-wide average.
type phase struct {
	r          *run
	every, dur time.Duration
	yOpen      float64 // the sample that opened the current window

	// The open window: throughput work, all paced work, and the
	// latencies (ms) of the operations that finished in it.
	cycles      int64
	work, paced time.Duration
	lat         []float64

	rates, rawRates []float64 // closed windows, cycles per second
	lats, rawLats   []float64 // operations of closed windows, ms
}

func (r *run) startPhase() *phase {
	p := &phase{r: r, every: r.o.duration(yardEvery), dur: r.o.duration(yardSample)}
	p.yOpen = r.y.sample(p.dur)
	return p
}

// op records one timed operation that delivered cycles target cycles.
func (p *phase) op(cycles int64, d time.Duration) {
	p.cycles += cycles
	p.work += d
	p.lat = append(p.lat, ms(d))
}

// tick accounts d of work toward the window (throughput work and work
// that only paces, like remote-link's conservative sessions) and closes
// the window once it holds yardEvery.
func (p *phase) tick(d time.Duration) {
	p.paced += d
	if p.paced >= p.every {
		p.close()
	}
}

// close samples the yardstick and files the open window, normalized.
func (p *phase) close() {
	y := p.r.y.sample(p.dur)
	yw := (p.yOpen + y) / 2
	if p.work > 0 {
		raw := float64(p.cycles) / p.work.Seconds()
		p.rawRates = append(p.rawRates, raw)
		p.rates = append(p.rates, normRate(raw, yw))
	}
	for _, l := range p.lat {
		p.rawLats = append(p.rawLats, l)
		p.lats = append(p.lats, normTime(l, yw))
	}
	p.yOpen = y
	p.cycles, p.work, p.paced, p.lat = 0, 0, 0, p.lat[:0]
}

// finish closes the trailing window and records host_cyc_s (the median
// window), run_p50_ms and run_tail_ms, each beside its raw value.
func (p *phase) finish() {
	p.close()
	r := p.r
	r.setNormalized("host_cyc_s", median(p.rates), median(p.rawRates), "cyc/s")
	r.setNormalized("run_p50_ms", percentile(p.lats, 50), percentile(p.rawLats, 50), "ms")
	r.setNormalized("run_tail_ms", percentile(p.lats, r.w.tailPct), percentile(p.rawLats, r.w.tailPct), "ms")
	r.note("host_cyc_s is the median of %d throughput windows; run_tail_ms is the nearest-rank p%g of %d operations",
		len(p.rates), r.w.tailPct, len(p.lats))
}
