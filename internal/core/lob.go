package core

import (
	"fmt"

	"coemu/internal/amba"
)

// Entry is one run-ahead cycle recorded in the Leader Output Buffer: the
// leader's own contribution for the cycle plus, for all but the final
// entry of a transition, the prediction of the lagger's contribution the
// leader committed with.
//
// The paper's footnote 7: "the last leader-to-lagger data does not
// contain prediction. The last unit cycle operation of leading CW does
// not predict the state of lagger as it tries to read it from lagger as
// conventional method does." HasPred is therefore false exactly once,
// for the final entry.
type Entry struct {
	Out     amba.PartialState
	Pred    amba.PartialState
	HasPred bool

	// words memoizes Words (0 = not yet computed; a packed state is
	// never empty). Words is consulted several times per run-ahead
	// cycle — the repeated PackedWords walks showed in profiles.
	words uint8
}

// Words returns the wire size of the entry in 32-bit words.
func (e *Entry) Words() int {
	if e.words == 0 {
		n := e.Out.PackedWords()
		if e.HasPred {
			n += e.Pred.PackedWords()
		}
		e.words = uint8(n)
	}
	return int(e.words)
}

// sameEntry compares the wire-visible content of two entries, ignoring
// the size memo (which may be computed on one side only).
func sameEntry(a, b *Entry) bool {
	return a.HasPred == b.HasPred && a.Out == b.Out && a.Pred == b.Pred
}

// LOB is the Leader Output Buffer: during the run-ahead step the leader
// deposits its outputs (and predictions) here instead of paying a
// channel access per cycle; a flush ships the whole buffer as one burst.
// Capacity is measured in 32-bit words, matching the paper's "LOB depth"
// parameter (64 words in Table 2, 8 vs 64 in Figure 4).
//
// Entries are written in place: Slot hands out the next entry's
// storage, the leader evaluates and predicts straight into it, and Keep
// appends it.
type LOB struct {
	depth   int
	entries []Entry
	words   int
	peak    int
}

// NewLOB creates a buffer holding at most depth words. The flush framing
// costs one extra word (the entry count), reserved out of the depth.
func NewLOB(depth int) *LOB {
	if depth < 1 {
		panic(fmt.Sprintf("core: LOB depth %d < 1", depth))
	}
	// Every entry is at least one word, so depth entries is the most the
	// buffer can ever hold: preallocating that keeps Slot allocation-free
	// and its storage fixed for the buffer's lifetime.
	return &LOB{depth: depth, entries: make([]Entry, 0, depth)}
}

// Depth returns the configured capacity in words.
func (l *LOB) Depth() int { return l.depth }

// Len returns the number of kept entries.
func (l *LOB) Len() int { return len(l.entries) }

// Words returns the current payload size in words, including framing.
func (l *LOB) Words() int { return l.words + 1 }

// Slot returns the storage of the next entry with its size memo
// cleared. Its other fields hold whatever an earlier transition left
// there, so the caller writes Out, Pred and HasPred before Keep.
func (l *LOB) Slot() *Entry {
	e := &l.entries[:len(l.entries)+1][len(l.entries)]
	e.words = 0
	return e
}

// Keep appends the entry Slot handed out. Keeping past capacity panics:
// the leader must leave room before it fills a slot — overflow is a
// channel-wrapper bug, not a condition to absorb. So does keeping an
// entry after the final (prediction-less) one.
func (l *LOB) Keep() {
	n := len(l.entries)
	e := &l.entries[:n+1][n]
	w := e.Words()
	after := l.words + 1 + w // Words() once the entry is in
	if after > l.depth {
		panic(fmt.Sprintf("core: LOB overflow (%d+%d > %d words)", l.words+1, w, l.depth))
	}
	if n > 0 && !l.entries[n-1].HasPred {
		panic("core: entry kept after the final (prediction-less) entry")
	}
	l.entries = l.entries[:n+1]
	l.words += w
	if after > l.peak {
		l.peak = after
	}
}

// Entries returns the kept entries in deposit order.
func (l *LOB) Entries() []Entry { return l.entries }

// Reset empties the buffer (at the start of a transition).
func (l *LOB) Reset() {
	l.entries = l.entries[:0]
	l.words = 0
}

// PeakWords returns the high-water mark of Words() across the run.
func (l *LOB) PeakWords() int { return l.peak }
