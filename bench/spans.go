package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span log of one traced pass; spans past
// it are dropped (counted, not recorded).
const maxSpans = 50000

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	name       string
	tid        int // Chrome track: 1 ladder, 2 and 3 the daemon clients
	id, parent int // parent 0 is the root
	start, end time.Duration
}

// spanLog keeps the spans of one traced pass in memory and writes them
// out as Chrome trace_event JSON (loadable in Perfetto) when the run
// ends. A nil *spanLog records nothing, so untraced runs pay one nil
// check per span site.
type spanLog struct {
	workload string
	epoch    time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its id (0 when not recorded).
func (l *spanLog) add(name string, parent, tid int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{name: name, tid: tid, id: id, parent: parent,
		start: start.Sub(l.epoch), end: end.Sub(l.epoch)})
	return id
}

// begin opens a span that end closes; it returns the span's id.
func (l *spanLog) begin(name string, parent, tid int) int {
	if l == nil {
		return 0
	}
	now := time.Now()
	return l.add(name, parent, tid, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].end = time.Since(l.epoch)
	l.mu.Unlock()
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := chromeDoc{DisplayTimeUnit: "ns"}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "bench " + l.workload, "dropped_spans": l.dropped},
	})
	for _, s := range l.spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.name, Cat: l.workload, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "workload": l.workload,
			},
		})
	}
	return writeJSON(path, doc)
}

// mergeChrome concatenates per-workload span files into one document,
// one Chrome process per workload.
func mergeChrome(path string, files []string) error {
	var out chromeDoc
	out.DisplayTimeUnit = "ns"
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("merge spans: %w", err)
		}
		var doc chromeDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("merge spans %s: %w", f, err)
		}
		for _, ev := range doc.TraceEvents {
			ev.Pid = i + 1
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	return writeJSON(path, out)
}
