package channel

import (
	"testing"

	"coemu/internal/device"
	"coemu/internal/vclock"
)

// TestAccountNMatchesSends pins the batch contract: AccountN leaves
// the ledger and every channel statistic bit-identical to n sequential
// Account calls of the same payload size.
func TestAccountNMatchesSends(t *testing.T) {
	var seqLedger, batLedger vclock.Ledger
	seq := New(device.IPROVE(), &seqLedger)
	bat := New(device.IPROVE(), &batLedger)

	const words, n = 5, 9
	for i := 0; i < n; i++ {
		seq.Account(SimToAcc, words)
	}
	bat.AccountN(SimToAcc, words, n)

	if seqLedger != batLedger {
		t.Fatalf("ledger diverged: sequential %v, batched %v", seqLedger.String(), batLedger.String())
	}
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverged:\nsequential: %+v\nbatched:    %+v", seq.Stats(), bat.Stats())
	}
}

// TestAccountZeroLengthPaysStartup pins the doorbell semantics: an
// access with no payload still pays the stack's startup cost.
func TestAccountZeroLengthPaysStartup(t *testing.T) {
	var l vclock.Ledger
	stack := device.IPROVE()
	c := New(stack, &l)
	c.Account(AccToSim, 0)
	if l.Get(vclock.Channel) < stack.Startup() {
		t.Fatalf("zero-length access charged %v, want at least startup %v",
			l.Get(vclock.Channel), stack.Startup())
	}
	if c.Stats().Accesses[AccToSim] != 1 {
		t.Fatal("access not counted")
	}
}
