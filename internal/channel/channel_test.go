package channel

import (
	"testing"
	"time"

	"coemu/internal/amba"
	"coemu/internal/device"
	"coemu/internal/vclock"
)

func TestSendChargesStartupPlusPayload(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 4)
	want := 12200*time.Nanosecond + time.Duration(4*49950/1000)
	if got := l.Get(vclock.Channel); got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	if l.Count(vclock.Channel) != 1 {
		t.Fatal("one access must be one charge")
	}
}

func TestRoundTripData(t *testing.T) {
	q := NewQueues()
	in := []amba.Word{0xDEAD, 0xBEEF}
	if err := q.Send(AccToSim, in); err != nil {
		t.Fatal(err)
	}
	in[0] = 0 // sender reuses its buffer; the packet must be unaffected
	out, err := q.Recv(AccToSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != 0xDEAD || out[1] != 0xBEEF {
		t.Fatalf("recv gave %v", out)
	}
}

func TestQueueOrderingAndPending(t *testing.T) {
	q := NewQueues()
	for _, w := range []amba.Word{1, 2} {
		if err := q.Send(SimToAcc, []amba.Word{w}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Pending(SimToAcc) != 2 {
		t.Fatalf("pending = %d", q.Pending(SimToAcc))
	}
	for _, w := range []amba.Word{1, 2} {
		got, err := q.Recv(SimToAcc)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != w {
			t.Fatalf("fifo order broken: got %v, want [%d]", got, w)
		}
	}
}

func TestStatsHistogram(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 1)
	c.Account(SimToAcc, 4)
	c.Account(SimToAcc, 40)
	c.Account(AccToSim, 100)
	st := c.Stats()
	if st.TotalAccesses() != 4 || st.TotalWords() != 145 {
		t.Fatalf("stats %+v", st)
	}
	if st.SizeHist[SimToAcc][0] != 1 || st.SizeHist[SimToAcc][2] != 1 || st.SizeHist[SimToAcc][4] != 1 {
		t.Fatalf("sim->acc hist %v", st.SizeHist[SimToAcc])
	}
	if st.SizeHist[AccToSim][5] != 1 {
		t.Fatalf("acc->sim hist %v", st.SizeHist[AccToSim])
	}
	if len(BucketLabels()) != 6 {
		t.Fatal("bucket labels")
	}
}

func TestZeroPayloadStillCostsStartup(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 0)
	if got := l.Get(vclock.Channel); got != 12200*time.Nanosecond {
		t.Fatalf("empty access charged %v", got)
	}
	q := NewQueues()
	if err := q.Send(SimToAcc, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := q.Recv(SimToAcc); err != nil || len(got) != 0 {
		t.Fatalf("empty packet came back with %d words (err %v)", len(got), err)
	}
}

func TestNilLedgerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil ledger must panic")
		}
	}()
	New(device.IPROVE(), nil)
}
