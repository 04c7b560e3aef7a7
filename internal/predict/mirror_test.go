package predict_test

import (
	"fmt"
	"strings"
	"testing"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/predict"
	"coemu/internal/workload"
)

// The leader's wait model of a remote memory slave is the slave's own
// timing automaton, ip.SlaveTiming. These tests drive an ip.Memory, a
// RETRY memory or an ip.SplitMemory through its bus.Slave methods,
// exactly as the bus does, next to a second automaton with the same
// profile fed the way the engine feeds it: Reply before the cycle,
// Observe with the cycle's HREADY after it.

// xfer is one transfer of a mirror schedule: a burst of beats, then
// gap idle cycles in which no beat is addressed to the memory.
type xfer struct {
	burst amba.Burst
	write bool
	gap   int
}

// timingSlave builds a slave of the given kind (0 memory, 1 RETRY, 2
// SPLIT) and the automaton that mirrors it. The RETRY and SPLIT slaves
// wait first cycles on every beat; next applies to the memory only.
func timingSlave(kind, first, next, every int) (bus.Slave, ip.SlaveTiming) {
	switch kind {
	case 1:
		return ip.NewRetryMemory("retry", first, every), ip.NewSlaveTiming(first, first, ip.RetryEvery(every))
	case 2:
		return ip.NewSplitMemory("split", first, every, 2), ip.NewSlaveTiming(first, first, ip.SplitEvery(every))
	}
	return ip.NewMemory("mem", first, next), ip.NewSlaveTiming(first, next, ip.Cadence{})
}

// checkMirror runs sched against slave and a mirror automaton fed only
// each data-phase cycle's HREADY. A beat that gets RETRY or SPLIT is
// presented again on the next cycle, as its master reissues it. On
// every data-phase cycle the mirror's Reply must equal the slave's
// HREADY and HRESP, give the same answer when asked again, and leave
// the mirror's value unchanged. It returns the number of two-cycle
// responses checked.
func checkMirror(t testing.TB, slave bus.Slave, mirror ip.SlaveTiming, sched []xfer) int {
	t.Helper()
	addr := amba.Addr(0x100)
	cycle, responses := 0, 0
	for i, x := range sched {
		ap := amba.AddrPhase{Addr: addr, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: x.burst, Write: x.write}
		for beat := 0; beat < x.burst.Beats(); beat++ {
			for done := false; !done; cycle++ {
				if cycle > 64*len(sched)+1000 {
					t.Fatalf("%s: transfer %d beat %d still pending after %d cycles", slave.Name(), i, beat, cycle)
				}
				before := mirror
				pred := mirror.Reply()
				if again := mirror.Reply(); again != pred {
					t.Fatalf("cycle %d: Reply gave %v, then %v", cycle, pred, again)
				}
				if mirror != before {
					t.Fatalf("cycle %d: Reply moved the automaton from %+v to %+v", cycle, before, mirror)
				}
				reply := slave.Respond(ap)
				if pred.Ready != reply.Ready || pred.Resp != reply.Resp {
					t.Fatalf("%s, transfer %d (%v write=%v), beat %d, cycle %d: predicted %v, slave drove %v",
						slave.Name(), i, x.burst, x.write, beat, cycle, pred, reply)
				}
				if !reply.Ready && reply.Resp != amba.RespOkay {
					responses++
				}
				done = reply.Ready && reply.Resp == amba.RespOkay
				if done && ap.Write {
					slave.WriteCommit(ap, amba.Word(cycle))
				}
				slave.Commit(reply.Ready)
				mirror.Observe(reply.Ready)
			}
			ap.Trans = amba.TransSeq
			ap.Addr = amba.NextAddr(ap.Addr, ap.Size, ap.Burst)
		}
		addr = ap.Addr
		cycle += x.gap
	}
	return responses
}

// mirrorSched mixes single beats and bursts of both directions, back to
// back and with gaps.
var mirrorSched = []xfer{
	{amba.BurstSingle, true, 0},
	{amba.BurstSingle, false, 2},
	{amba.BurstIncr4, true, 0},
	{amba.BurstIncr4, true, 1},
	{amba.BurstIncr8, false, 0},
	{amba.BurstIncr8, true, 3},
	{amba.BurstSingle, true, 1},
	{amba.BurstIncr4, false, 0},
	{amba.BurstIncr8, true, 0},
}

func TestWaitModelMatchesMemory(t *testing.T) {
	for first := 0; first <= 3; first++ {
		for next := 0; next <= 3; next++ {
			t.Run(fmt.Sprintf("first=%d_next=%d", first, next), func(t *testing.T) {
				slave, mirror := timingSlave(0, first, next, 0)
				checkMirror(t, slave, mirror, mirrorSched)
			})
		}
	}
}

// TestSlaveTimingMatchesRetryAndSplit runs the schedule against RETRY
// and SPLIT memories at every period 1-5 and wait states 0-2: the
// mirror predicts the first cycle of every two-cycle response as well
// as the second.
func TestSlaveTimingMatchesRetryAndSplit(t *testing.T) {
	beats := 0
	for _, x := range mirrorSched {
		beats += x.burst.Beats()
	}
	for kind := 1; kind <= 2; kind++ {
		for every := 1; every <= 5; every++ {
			for waits := 0; waits <= 2; waits++ {
				slave, mirror := timingSlave(kind, waits, waits, every)
				if got := checkMirror(t, slave, mirror, mirrorSched); got != beats/every {
					t.Fatalf("%s every %d, waits %d: %d two-cycle responses checked, want %d",
						slave.Name(), every, waits, got, beats/every)
				}
			}
		}
	}
}

// FuzzWaitModelMirror decodes a slave and a transfer schedule from the
// fuzzer's bytes and runs the mirror oracle over them: the first two
// bytes give the wait states (bits 0-1) and, in their upper bits, the
// slave kind (memory, RETRY or SPLIT) and the cadence's period (1-5);
// each later byte is one transfer.
func FuzzWaitModelMirror(f *testing.F) {
	f.Add([]byte{2, 1, 0x01, 0x0a, 0x06, 0x13})
	f.Add([]byte{0, 3, 0x02, 0x02, 0x1c})
	f.Add([]byte{3, 0, 0x00, 0x18, 0x05})
	f.Add([]byte{0x05, 0x0c, 0x01, 0x0a, 0x06, 0x13, 0x02})
	f.Add([]byte{0x08, 0x00, 0x02, 0x1c, 0x05, 0x01})
	f.Add([]byte{0x0a, 0x11, 0x18, 0x01, 0x06, 0x0e})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		first, next := int(b[0]%4), int(b[1]%4)
		kind, every := int(b[0]>>2)%3, 1+int(b[1]>>2)%5
		bursts := [4]amba.Burst{amba.BurstSingle, amba.BurstIncr4, amba.BurstIncr8, amba.BurstSingle}
		sched := make([]xfer, 0, len(b)-2)
		for _, c := range b[2:] {
			sched = append(sched, xfer{burst: bursts[c&3], write: c&4 != 0, gap: int(c>>3) & 3})
		}
		slave, mirror := timingSlave(kind, first, next, every)
		checkMirror(t, slave, mirror, sched)
	})
}

// step runs one data-phase cycle the way the engine does: predict,
// then observe the outcome (here the prediction itself, as on a
// run-ahead cycle).
func step(w *ip.SlaveTiming) bool {
	ready := w.Reply().Ready
	w.Observe(ready)
	return ready
}

func TestWaitModelMirrorsMemoryProfile(t *testing.T) {
	w := ip.NewSlaveTiming(2, 1, ip.Cadence{})
	// First beat: 2 waits then ready; next beat: 1 wait then ready.
	want := []bool{false, false, true, false, true, false, true}
	for i, r := range want {
		if got := step(&w); got != r {
			t.Fatalf("cycle %d: predicted ready=%v, want %v", i, got, r)
		}
	}
}

func TestWaitModelObserveRealigns(t *testing.T) {
	w := ip.NewSlaveTiming(0, 0, ip.Cadence{})
	// Model expects ready immediately, but the real slave waited twice.
	w.Observe(false)
	w.Observe(false)
	w.Observe(true)
	// After the beat completes, the model starts the next beat cleanly.
	if !w.Reply().Ready {
		t.Fatal("zero-wait model must predict ready on a fresh beat")
	}
}

func TestWaitModelSnapshot(t *testing.T) {
	w := ip.NewSlaveTiming(3, 1, ip.Cadence{})
	step(&w) // one wait cycle into the first beat
	s := w
	// Two more waits, the first beat completes, then a 1-wait beat.
	want := []bool{false, false, true, false, true}
	for pass := 0; pass < 2; pass++ {
		for i, r := range want {
			if got := step(&w); got != r {
				t.Fatalf("pass %d, cycle %d: predicted ready=%v, want %v", pass, i, got, r)
			}
		}
		w = s
	}
}

// A master that loses the grant with beats left rebuilds the remainder
// on its next grant. These tests drive an ip.TrafficMaster through its
// bus.Master methods, exactly as the bus does, next to a copy of its
// sequencer fed the way the leader's predictor feeds it: Observe on
// ready cycles while the master is granted, with whether the grant
// stays.

// rebuildCounts tallies the cycles a rebuild mirror checked.
type rebuildCounts struct {
	regrants int // first beats of a rebuilt remainder
	wraps    int // fresh NONSEQs at a rebuilt WRAP burst's wrap point
	beats    int // every beat of a rebuilt remainder, the above included
}

// checkRebuildMirror runs a master fed xfers (all OKAY, no BUSY) under
// sched, one letter per cycle: 'g' is a ready cycle after which the
// master is granted, 'x' a ready cycle after which it is not, and 'w' a
// wait state (a ready cycle that keeps the grant when no beat is in the
// data phase). On every cycle Predict must give the same answer twice
// and leave the copy's value unchanged; on the regrant cycle and on
// each beat of a rebuilt remainder it must confidently predict the
// master's address phase.
func checkRebuildMirror(t testing.TB, tr *ip.Sequencer, xfers []ip.Xfer, sched string) rebuildCounts {
	t.Helper()
	m := ip.NewTrafficMaster("m", workload.NewSequence(xfers...), 0)
	var n rebuildCounts
	granted, lastReady, dataValid := false, true, false
	// The test's own account of the master: transfer xi has issued
	// beats, and was cut with beats left (rebuilding); regrant marks
	// the first beat after a cut.
	xi, issued, rebuilding, regrant := 0, 0, false, false
	for cycle, c := range sched {
		before := *tr
		pred, ok := tr.Predict()
		if again, okAgain := tr.Predict(); again != pred || okAgain != ok {
			t.Fatalf("cycle %d: Predict gave %v (%v), then %v (%v)", cycle, pred, ok, again, okAgain)
		}
		if *tr != before {
			t.Fatalf("cycle %d: Predict moved the sequencer copy from %+v to %+v", cycle, before, *tr)
		}

		var d bus.MasterDrive
		m.Drive(&d)
		if granted && lastReady && rebuilding {
			if !ok || pred != d.AP {
				t.Fatalf("cycle %d of %q, transfer %d beat %d: predicted %v (confident %v), master drove %v",
					cycle, sched, xi, issued, pred, ok, d.AP)
			}
			n.beats++
			switch {
			case regrant:
				n.regrants++
				regrant = false
			case d.AP.Trans == amba.TransNonSeq:
				n.wraps++
			}
		}

		ready := c != 'w' || !dataValid
		grantNext := granted
		if c != 'w' {
			grantNext = c == 'g'
		}
		m.Commit(bus.MasterFeedback{Granted: granted, GrantNext: grantNext, Ready: ready, OwnsData: dataValid, Resp: amba.RespOkay})
		if granted && ready {
			tr.Observe(d.AP, grantNext)
		}

		if ready {
			dataValid = granted && d.AP.Trans.Active()
			if dataValid {
				if issued++; issued == xfers[xi].Beats() {
					xi, issued, rebuilding, regrant = xi+1, 0, false, false
				}
			}
			if granted && !grantNext && issued > 0 {
				rebuilding, regrant = true, true
			}
		}
		lastReady = ready
		granted = grantNext
	}
	return n
}

// rebuildBursts are the burst types a rebuild can cut: every
// multi-beat type of the AHB protocol.
var rebuildBursts = [...]amba.Burst{
	amba.BurstIncr, amba.BurstIncr4, amba.BurstIncr8, amba.BurstIncr16,
	amba.BurstWrap4, amba.BurstWrap8, amba.BurstWrap16,
}

// TestBurstRebuildMirror cuts one burst of each type twice, with wait
// states around the cuts: after its first beat, and after the second
// beat of the rebuilt remainder. Each WRAP burst starts two beats below
// its wrap boundary, so the remainder reaches the wrap point on its
// second beat.
func TestBurstRebuildMirror(t *testing.T) {
	sched := "gxwxxggxwxg" + strings.Repeat("g", 24)
	for _, burst := range rebuildBursts {
		for _, write := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/write=%v", burst, write), func(t *testing.T) {
				x := ip.Xfer{Addr: 0x1000, Write: write, Size: amba.Size32, Burst: burst, Len: 9}
				if burst.Wrapping() {
					x.Addr += amba.Addr(amba.WrapBoundaryBytes(burst, amba.Size32) - 2*4)
				}
				n := checkRebuildMirror(t, &ip.Sequencer{}, []ip.Xfer{x, x}, sched)
				if n.regrants != 2 {
					t.Fatalf("%d regrant cycles checked, want 2 (%+v)", n.regrants, n)
				}
				if burst.Wrapping() && n.wraps != 1 {
					t.Fatalf("%d wrap points checked, want 1 (%+v)", n.wraps, n)
				}
				if want := x.Beats() - 1; n.beats != want {
					t.Fatalf("%d rebuilt beats checked, want %d (%+v)", n.beats, want, n)
				}
			})
		}
	}
}

// FuzzBurstRebuildMirror decodes a transfer list and a grant/wait
// schedule from the fuzzer's bytes and runs the rebuild mirror over
// them. The first byte is reserved and ignored, which keeps the seeds
// decoding to the transfers they were written for.
func FuzzBurstRebuildMirror(f *testing.F) {
	f.Add([]byte{0, 4, 0x00, 0x41, 0x24, 0x10, 0x63, 0x08, 0x05, 0x00, 0x36, 0xe2, 0x2d, 0x18, 0x00})
	f.Add([]byte{2, 1, 0x1d, 0x2c, 0x6c, 0xc9, 0x26, 0x91, 0x00})
	f.Add([]byte{3, 2, 0x16, 0xf0, 0x3a, 0x00, 0x94, 0x55, 0x2b, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		tr := &ip.Sequencer{}
		nx := 1 + int(b[1]%4)
		b = b[2:]
		if len(b) < 2*nx {
			return
		}
		xfers := make([]ip.Xfer, nx)
		for i := range xfers {
			c0, c1 := b[2*i], b[2*i+1]
			xfers[i] = ip.Xfer{
				Addr:  0x1000 + amba.Addr(c0>>3)*4,
				Write: c1&1 != 0,
				Size:  amba.Size32,
				Burst: rebuildBursts[int(c0)%len(rebuildBursts)],
				Len:   1 + int(c1>>3)&15,
				Gap:   int(c1>>1) & 3,
			}
		}
		// Two bits per cycle: mostly granted, with grant losses and
		// wait states.
		letters := [4]byte{'g', 'g', 'x', 'w'}
		var sched []byte
		for _, c := range b[2*nx:] {
			for k := 0; k < 4; k++ {
				sched = append(sched, letters[(c>>(2*k))&3])
			}
		}
		checkRebuildMirror(t, tr, xfers, string(sched))
	})
}

// A master drops its request on the cycle after the ready cycle that
// accepts its fixed-length burst's final address phase. These tests
// drive an ip.TrafficMaster through its bus.Master methods next to a
// copy of its sequencer and a RequestModel fed the way the leader's
// predictor feeds them: the request line every cycle; on a ready cycle
// while the master is granted, its address phase and whether the grant
// stays, then Fall when that was a fixed-length burst's final beat.

// fallCounts tallies the cycles a request-fall mirror checked.
type fallCounts struct {
	falls    int // boundary cycles of fixed-length bursts
	incr     int // boundary cycles of INCR bursts
	regrants int // NONSEQs that open a burst after a cut on a final beat
}

// checkRequestFall runs a master fed xfers against a slave that waits
// waits cycles on every beat, all OKAY. When cuts[i] is set, the grant
// moves away on the ready cycle that accepts transfer i's final address
// phase and returns two ready cycles later. On the boundary cycle after
// each final address phase, the predicted request line must equal the
// master's HBUSREQ (low) for a fixed-length burst, and keep its last
// value (high) for an INCR burst, whose length the copy cannot know.
// On every cycle the master is granted after a ready one, a confident
// address-phase prediction must equal the master's address phase,
// unless it continues an INCR burst (a guess at its length). On every
// cycle Predict must give the same answer twice.
func checkRequestFall(t testing.TB, xfers []ip.Xfer, cuts []bool, waits int) fallCounts {
	t.Helper()
	m := ip.NewTrafficMaster("m", workload.NewSequence(xfers...), 0)
	var tr ip.Sequencer
	req := predict.NewRequestModel(1)
	var n fallCounts
	granted, lastReady := true, true
	dataValid, waitLeft, away := false, 0, 0
	// The test's own account: transfer xi has issued beats; boundary
	// marks the cycle after a final address phase, of a fixed-length
	// burst when fixed; recut marks a master whose burst ended on a cut.
	xi, issued := 0, 0
	boundary, fixed, recut := false, false, false
	limit := 64
	for _, x := range xfers {
		limit += (x.Beats()+2)*(waits+1) + x.Gap
	}
	for cycle := 0; !m.Idle() || boundary; cycle++ {
		if cycle > limit {
			t.Fatalf("the master is still busy after %d cycles", cycle)
		}
		predReq := req.Predict()
		pred, ok := tr.Predict()
		if again, okAgain := tr.Predict(); again != pred || okAgain != ok || req.Predict() != predReq {
			t.Fatalf("cycle %d: Predict is not pure", cycle)
		}
		var d bus.MasterDrive
		m.Drive(&d)
		if boundary {
			switch {
			case d.Req:
				t.Fatalf("cycle %d: the master requests on the boundary cycle after transfer %d", cycle, xi-1)
			case fixed:
				n.falls++
				if predReq != 0 {
					t.Fatalf("cycle %d, boundary after transfer %d (%v, gap %d, waits %d, cut %v): predicted request %#x, master drove it low",
						cycle, xi-1, xfers[xi-1].Burst, xfers[xi-1].Gap, waits, cuts[xi-1], predReq)
				}
			default:
				n.incr++
				if predReq != 1 {
					t.Fatalf("cycle %d, boundary after INCR transfer %d: predicted request %#x, want no fall (the last value)", cycle, xi-1, predReq)
				}
			}
		}
		last := xi
		if issued == 0 {
			last = xi - 1 // the transfer whose beats the copy saw last
		}
		guess := last >= 0 && xfers[last].Burst.Beats() == 0
		if granted && lastReady && !guess {
			if ok && pred != d.AP {
				t.Fatalf("cycle %d, transfer %d beat %d: predicted %v, master drove %v", cycle, xi, issued, pred, d.AP)
			}
			if recut && d.AP.Trans == amba.TransNonSeq {
				n.regrants++
				recut = false
			}
		}

		ready := true
		if dataValid && waitLeft > 0 {
			ready = false
			waitLeft--
		}
		final := granted && ready && d.AP.Trans.Active() && issued+1 == xfers[xi].Beats()
		grantNext := granted
		switch {
		case !ready:
		case final && cuts[xi]:
			grantNext, away, recut = false, 2, true
		case !granted:
			away--
			grantNext = away == 0
		}
		m.Commit(bus.MasterFeedback{Granted: granted, GrantNext: grantNext, Ready: ready, OwnsData: dataValid, Resp: amba.RespOkay})
		var line uint32
		if d.Req {
			line = 1
		}
		req.Observe(line)
		if granted && ready && tr.Observe(d.AP, grantNext) {
			req.Fall(0)
		}

		boundary = false
		if ready {
			dataValid = granted && d.AP.Trans.Active()
			waitLeft = waits
			if dataValid {
				if issued++; final {
					boundary, fixed = true, xfers[xi].Burst.Beats() > 0
					xi, issued = xi+1, 0
				}
			}
		}
		lastReady, granted = ready, grantNext
	}
	return n
}

// fallBursts are the burst types of the request-fall mirror: every
// fixed-length type, and INCR, which gets no fall.
var fallBursts = [...]amba.Burst{
	amba.BurstSingle, amba.BurstIncr4, amba.BurstIncr8, amba.BurstIncr16,
	amba.BurstWrap4, amba.BurstWrap8, amba.BurstWrap16, amba.BurstIncr,
}

// TestRequestFallMirrorsMaster runs three transfers of each burst type
// at gaps 0-3 and slave waits 0-2, with the grant kept and with it lost
// on every final beat.
func TestRequestFallMirrorsMaster(t *testing.T) {
	var total fallCounts
	for _, burst := range fallBursts {
		for gap := 0; gap <= 3; gap++ {
			for waits := 0; waits <= 2; waits++ {
				for _, cut := range []bool{false, true} {
					name := fmt.Sprintf("%v/gap=%d/waits=%d/cut=%v", burst, gap, waits, cut)
					t.Run(name, func(t *testing.T) {
						x := ip.Xfer{Addr: 0x1000, Write: waits == 1, Size: amba.Size32, Burst: burst, Len: 5, Gap: gap}
						xfers := []ip.Xfer{x, x, x}
						n := checkRequestFall(t, xfers, []bool{cut, cut, cut}, waits)
						if got := n.falls + n.incr; got != len(xfers) {
							t.Fatalf("%d boundary cycles checked, want %d (%+v)", got, len(xfers), n)
						}
						total.falls += n.falls
						total.incr += n.incr
						total.regrants += n.regrants
					})
				}
			}
		}
	}
	// Every cut fixed-length transfer but the last is followed by a
	// regrant.
	if want := 2 * 4 * 3 * (len(fallBursts) - 1); total.regrants != want {
		t.Fatalf("%d regrants after a cut on a final beat checked, want %d (%+v)", total.regrants, want, total)
	}
}

// FuzzRequestFallMirror decodes the slave's wait states and a transfer
// list from the fuzzer's bytes and runs the request-fall mirror over
// them: one byte per transfer gives its burst type (bits 0-2), gap
// (bits 3-4), INCR length (bit 5), direction (bit 6) and whether the
// grant moves away on its final beat (bit 7).
func FuzzRequestFallMirror(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x09, 0x32, 0x0f, 0x1c})
	f.Add([]byte{1, 0x81, 0x82, 0x8c, 0x05, 0xc0})
	f.Add([]byte{2, 0x3b, 0x84, 0xa7, 0x16, 0xca, 0x3f})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		waits := int(b[0] % 3)
		b = b[1:]
		if len(b) > 16 {
			b = b[:16]
		}
		xfers := make([]ip.Xfer, len(b))
		cuts := make([]bool, len(b))
		for i, c := range b {
			xfers[i] = ip.Xfer{
				Addr:  0x1000 + amba.Addr(i)*0x40,
				Write: c&0x40 != 0,
				Size:  amba.Size32,
				Burst: fallBursts[c&7],
				Len:   1 + 4*int(c>>5&1),
				Gap:   int(c>>3) & 3,
			}
			cuts[i] = c&0x80 != 0
		}
		checkRequestFall(t, xfers, cuts, waits)
	})
}

// The second cycle of a two-cycle response. checkSecondCycle drives a
// slave through its bus.Slave methods the way the bus does (Respond,
// WriteCommit on an accepted OKAY write, Commit), presenting beats
// back to back and presenting a beat that got RETRY or SPLIT again. On
// the cycle after every first cycle of a non-OKAY response,
// predict.SecondCycle of that first cycle must equal the slave's reply.
// It returns the number of second cycles checked.
func checkSecondCycle(t testing.TB, s bus.Slave, beats int, write bool) int {
	t.Helper()
	checked := 0
	var prev amba.SlaveReply
	ap := amba.AddrPhase{Addr: 0x100, Trans: amba.TransNonSeq, Size: amba.Size32, Burst: amba.BurstIncr, Write: write}
	for beat, cycle := 0, 0; beat < beats; cycle++ {
		if cycle > 16*beats {
			t.Fatalf("%s: beat %d still pending after %d cycles", s.Name(), beat, cycle)
		}
		reply := s.Respond(ap)
		if want, ok := predict.SecondCycle(prev); ok {
			checked++
			if reply != want {
				t.Fatalf("%s, cycle %d, beat %d (write %v): predicted %v after %v, slave drove %v",
					s.Name(), cycle, beat, write, want, prev, reply)
			}
		}
		if reply.Ready && reply.Resp == amba.RespOkay && write {
			s.WriteCommit(ap, amba.Word(cycle))
		}
		s.Commit(reply.Ready)
		prev = reply
		if reply.Ready && (reply.Resp == amba.RespOkay || reply.Resp == amba.RespError) {
			beat++
			ap.Trans = amba.TransSeq
			ap.Addr += 4
		}
	}
	return checked
}

// TestTwoCycleResponseMirror checks every two-cycle response of a
// splitting memory, a retrying memory and an error slave, for reads and
// writes and at wait states 0-2.
func TestTwoCycleResponseMirror(t *testing.T) {
	const beats = 40
	for waits := 0; waits <= 2; waits++ {
		for _, write := range []bool{false, true} {
			for _, every := range []int{1, 3, 4} {
				slaves := []bus.Slave{
					ip.NewSplitMemory("split", waits, every, 2),
					ip.NewRetryMemory("retry", waits, every),
				}
				if every == 1 {
					slaves = append(slaves, ip.NewErrorSlave("error"))
				}
				for _, s := range slaves {
					want := beats / every
					if s.Name() == "error" {
						want = beats
					}
					if got := checkSecondCycle(t, s, beats, write); got != want {
						t.Fatalf("%s every %d, waits %d, write %v: %d second cycles checked, want %d",
							s.Name(), every, waits, write, got, want)
					}
				}
			}
		}
	}
}
