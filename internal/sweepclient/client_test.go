package sweepclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// The wire-level behaviour of one daemon round trip — Retry-After,
// permanent 4xx, per-point error lines, cut streams, the relayed or
// rebuilt aggregate — driven through one-member fleets on the stub
// daemon of fleet_test.go.

// testPoints builds n tiny distinct expanded points.
func testPoints(t *testing.T, n int) []*spec.Spec {
	t.Helper()
	points := make([]*spec.Spec, n)
	for i := range points {
		src := fmt.Sprintf(`{
		  "name": "pt-%d",
		  "design": {
		    "masters": [{"name": "dma", "domain": "acc",
		      "generator": {"kind": "stream", "window": {"lo": 0, "hi": "0x10000"},
		                    "write": true, "burst": "INCR8"}}],
		    "slaves": [{"name": "mem", "domain": "sim", "kind": "sram",
		      "region": {"lo": 0, "hi": "0x20000"}}]
		  },
		  "run": {"mode": "als", "cycles": %d}
		}`, i, 1000+100*i)
		sp, err := spec.Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		points[i] = sp
	}
	return points
}

func TestCleanRoundRelaysAggregateVerbatim(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	points := testPoints(t, 3)

	lines, rawAgg, err := newTestFleet(t, nil, d.srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg == nil {
		t.Fatal("clean one-round sweep did not relay the daemon's aggregate")
	}

	// The reassembled stream must be byte-identical to what the daemon
	// sent: same encoder, same structs, verbatim aggregate.
	var out bytes.Buffer
	if err := WriteNDJSON(&out, lines, rawAgg); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	sent := d.stream
	d.mu.Unlock()
	if !bytes.Equal(out.Bytes(), sent) {
		t.Fatalf("reassembled stream differs:\ngot:  %s\nwant: %s", out.Bytes(), sent)
	}
}

func TestFailoverToSecondDaemon(t *testing.T) {
	points := testPoints(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on
	live := startStubDaemon(t, newFleetStore())

	lines, _, err := newTestFleet(t, nil, dead.URL, live.srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if n := live.batchPoints(); n != len(points) {
		t.Fatalf("live daemon received %d point submissions for %d points", n, len(points))
	}
}

func TestMidStreamDisconnectResumesMissingOnly(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	d.cutAfter = 2 // serve two lines, then cut the stream and stay up
	points := testPoints(t, 4)

	lines, rawAgg, err := newTestFleet(t, nil, d.srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg != nil {
		t.Fatal("aggregate relayed despite a reassembled stream")
	}
	// Only the two points lost to the disconnect are re-submitted; the
	// two received lines are kept (store-aware resumption).
	if got := strings.Join(d.batch(1), ","); got != "pt-2,pt-3" {
		t.Fatalf("second round submitted %q, want pt-2,pt-3", got)
	}
	if n := d.sweepPosts(); n != 2 {
		t.Fatalf("daemon got %d sweep POSTs, want 2", n)
	}
}

// retryAfterFleet runs one point against a daemon whose first sweep
// POST answers 503 with the given Retry-After, and returns how long the
// sweep took.
func retryAfterFleet(t *testing.T, retryAfter string, maxBackoff time.Duration) time.Duration {
	t.Helper()
	d := startStubDaemon(t, newFleetStore())
	d.status, d.retryAfter = http.StatusServiceUnavailable, retryAfter
	points := testPoints(t, 1)
	opts := fastFleetOptions(t, d.srv.URL)
	opts.MaxBackoff = maxBackoff
	fleet := startFleet(t, opts)

	start := time.Now()
	lines, _, err := fleet.RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	requireClean(t, points, lines)
	if n := d.sweepPosts(); n != 2 {
		t.Fatalf("daemon got %d sweep POSTs, want the 503 and one retry", n)
	}
	return waited
}

func TestRetryAfterHonoredOn503(t *testing.T) {
	// The hint must fit under MaxBackoff to be honored in full, so the
	// ceiling sits above the 1s hint; the 1s must outrank the
	// millisecond backoff.
	if waited := retryAfterFleet(t, "1", 2*time.Second); waited < time.Second {
		t.Fatalf("retried after %v; Retry-After of 1s not honored", waited)
	}
}

func TestRetryAfterCappedAtMaxBackoff(t *testing.T) {
	// A misbehaving daemon advertising an hour must not stall the sweep
	// past the configured backoff ceiling.
	if waited := retryAfterFleet(t, "3600", 5*time.Millisecond); waited > 10*time.Second {
		t.Fatalf("retried after %v; Retry-After of 1h not capped at the 5ms MaxBackoff", waited)
	}
}

func TestRetryAfterHTTPDateHonored(t *testing.T) {
	// RFC 7231's other Retry-After form: an absolute HTTP-date.
	// http.TimeFormat truncates to whole seconds, so a date 2s ahead
	// parses to a delay in (1s, 2s]; 1s ahead could parse to a few
	// milliseconds.
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if waited := retryAfterFleet(t, date, 2*time.Second); waited < 500*time.Millisecond {
		t.Fatalf("retried after %v; HTTP-date Retry-After not honored", waited)
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("delta-seconds: got %v, want 7s", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Fatalf("negative delta: got %v, want 0", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 25*time.Second || d > 30*time.Second {
		t.Fatalf("HTTP-date +30s: got %v, want ~30s", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past HTTP-date: got %v, want 0", d)
	}
	if d := parseRetryAfter("not a date"); d != 0 {
		t.Fatalf("garbage: got %v, want 0", d)
	}
}

func TestBadRequestIsPermanent(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	d.status = http.StatusBadRequest

	_, _, err := newTestFleet(t, nil, d.srv.URL).RunPoints(context.Background(), testPoints(t, 1))
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want the daemon's 400", err)
	}
	if n := d.sweepPosts(); n != 1 {
		t.Fatalf("daemon got %d sweep POSTs for a permanent rejection, want 1", n)
	}
}

func TestPointErrorRetriesThenSucceeds(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	d.pointErr = func(post int, name string) string {
		if post == 1 && name == "pt-1" {
			return "service: worker panic" // first round only
		}
		return ""
	}
	points := testPoints(t, 2)

	lines, rawAgg, err := newTestFleet(t, nil, d.srv.URL).RunPoints(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, points, lines)
	if rawAgg != nil {
		t.Fatal("aggregate relayed despite a retried point")
	}
	if n := d.sweepPosts(); n != 2 {
		t.Fatalf("daemon got %d sweep POSTs, want 2", n)
	}
	if got := strings.Join(d.batch(1), ","); got != "pt-1" {
		t.Fatalf("retry round submitted %q, want only the failed pt-1", got)
	}
}

func TestExhaustedBudgetSettlesErrorLines(t *testing.T) {
	d := startStubDaemon(t, newFleetStore())
	d.pointErr = func(_ int, name string) string {
		if name == "pt-0" {
			return "always broken"
		}
		return ""
	}
	opts := fastFleetOptions(t, d.srv.URL)
	opts.Retries = 2
	lines, _, err := startFleet(t, opts).RunPoints(context.Background(), testPoints(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Error != "always broken" {
		t.Fatalf("line 0 error = %q, want the daemon's last error", lines[0].Error)
	}
	if lines[1].Error != "" {
		t.Fatalf("healthy point failed: %s", lines[1].Error)
	}
	if n := d.sweepPosts(); n != 3 {
		t.Fatalf("daemon got %d sweep POSTs, want 3 (one round plus two retries)", n)
	}

	// The rebuilt aggregate counts the surviving error.
	var out bytes.Buffer
	if err := WriteNDJSON(&out, lines, nil); err != nil {
		t.Fatal(err)
	}
	last := out.Bytes()[bytes.LastIndexByte(bytes.TrimSpace(out.Bytes()), '\n')+1:]
	var aggLine service.SweepAggregateLine
	if err := json.Unmarshal(last, &aggLine); err != nil {
		t.Fatal(err)
	}
	if aggLine.Aggregate.OK != 1 || aggLine.Aggregate.Errors != 1 || aggLine.Aggregate.Points != 2 {
		t.Fatalf("rebuilt aggregate = %+v", aggLine.Aggregate)
	}
}

func TestNewRejectsEmptyURLs(t *testing.T) {
	if _, err := NewFleet(FleetOptions{}); err == nil {
		t.Fatal("NewFleet accepted an empty URL list")
	}
	if _, err := NewFleet(FleetOptions{URLs: []string{" "}}); err == nil {
		t.Fatal("NewFleet accepted a blank URL")
	}
}
