package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderRingOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 6; i++ {
		r.Record(Event{Cycle: i, Kind: EvConservative})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first after wrap)", i, ev.Cycle, want)
		}
	}
}

func TestRecorderDefaultSize(t *testing.T) {
	if got := len(NewRecorder(0).buf); got != DefaultRingSize {
		t.Fatalf("default ring = %d, want %d", got, DefaultRingSize)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	ev := Event{Cycle: 1, N: 2, Kind: EvRunAhead, Domain: 1, Arg: 3}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2000; i++ { // force ring wrap inside the measurement
			r.Record(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f objects per run, want 0", allocs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Cycle: 0, N: 20, Kind: EvConservative},
		{Cycle: 20, Kind: EvSync, Domain: 1},
		{Cycle: 20, Kind: EvStore, Domain: 1},
		{Cycle: 20, N: 40, Kind: EvRunAhead, Domain: 1},
		{Cycle: 20, Kind: EvFlush, Domain: 1, Arg: 17},
		{Cycle: 20, N: 40, Kind: EvFollowUp, Domain: 0},
		{Cycle: 35, Kind: EvMispredict, Domain: 0},
		{Cycle: 35, Kind: EvRollback, Domain: 1, Arg: 15},
		{Cycle: 35, N: 15, Kind: EvRollForth, Domain: 1},
		{Cycle: 60, N: 63, Kind: EvBatchCommit, Arg: BatchConservative},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &arr); err != nil {
		t.Fatalf("chrome trace is not a valid JSON array: %v\n%s", err, b.String())
	}
	// 1 process_name + one thread_name metadata record per track, then
	// one record per event.
	meta := 1 + len(chromeTracks)
	if want := meta + len(events); len(arr) != want {
		t.Fatalf("trace has %d records, want %d", len(arr), want)
	}
	if arr[0]["ph"] != "M" || arr[0]["name"] != "process_name" {
		t.Errorf("first record is not process metadata: %v", arr[0])
	}
	var spans, instants int
	for _, rec := range arr[meta:] {
		switch rec["ph"] {
		case "X":
			spans++
			if _, ok := rec["dur"]; !ok {
				t.Errorf("complete event without dur: %v", rec)
			}
			if _, ok := rec["ts"]; !ok {
				t.Errorf("complete event without ts: %v", rec)
			}
		case "i":
			instants++
			if rec["s"] != "t" {
				t.Errorf("instant without thread scope: %v", rec)
			}
		default:
			t.Errorf("unexpected phase %v in %v", rec["ph"], rec)
		}
	}
	if spans != 4 || instants != 6 {
		t.Errorf("spans=%d instants=%d, want 4 and 6", spans, instants)
	}
	// The run-ahead span must sit on the run-ahead track with its cycle
	// count as duration.
	for _, rec := range arr {
		if rec["name"] == "run_ahead" {
			if rec["tid"].(float64) != 1 || rec["dur"].(float64) != 40 || rec["ts"].(float64) != 20 {
				t.Errorf("run_ahead span mis-tracked: %v", rec)
			}
		}
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EvConservative; k <= EvStore; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(EventKind(200).String(), "EventKind(") {
		t.Error("unknown kind should render as EventKind(n)")
	}
}
