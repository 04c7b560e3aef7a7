// Package sweepclient is the resilient client side of coemud's
// /v1/sweep wire protocol. Its one client, Fleet, drives a sweep's
// expanded points against one or more daemons and keeps going when the
// transport, a daemon, or an individual point fails. One URL is a
// one-member fleet; several URLs shard the points across the members
// (see fleet.go). There is no failover chain: a dead member's
// unfinished points are re-sharded over the live ones.
//
// Resilience has three layers:
//
//   - Retries with exponential backoff and jitter. Transport errors,
//     5xx responses and mid-stream disconnects are transient; the
//     fleet backs off (honoring a 503's Retry-After) and runs another
//     round. A 4xx response other than 503 is permanent and aborts the
//     run.
//   - Health-checked membership. A prober evicts members that keep
//     failing and re-admits them when they answer again, so each round
//     shards only over daemons that are up.
//   - Store-aware resumption. Lines received before a disconnect are
//     kept; each retry round re-submits only the still-missing points,
//     after asking the daemons' shared store for them. Since completed
//     points were written through to that store, a resumed round
//     replays them without engine runs, and the reassembled stream is
//     byte-identical to an unfaulted one (reports are canonical bytes
//     end to end).
//
// Per-point failures reported by the daemon (an injected worker panic,
// a run timeout) are also retried: each fault decision is a fresh draw
// from the daemon's fault stream, so a retry is not doomed to repeat
// the fault. Only when the retry budget is exhausted does a point keep
// its error line.
package sweepclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coemu/internal/service"
	"coemu/internal/spec"
)

// Defaults for the zero FleetOptions values.
const (
	DefaultRetries     = 8
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// ErrRetriesExhausted marks points that failed every round within the
// retry budget.
var ErrRetriesExhausted = errors.New("sweepclient: retries exhausted")

// settleLines turns the per-point state of a finished run into the
// final line slice: received lines verbatim, and for points the retry
// budget abandoned, an error line shaped like a daemon-side failure.
func settleLines(points []*spec.Spec, hashes []string, got []*service.SweepLine, lastErr map[int]string) []service.SweepLine {
	out := make([]service.SweepLine, len(points))
	for i := range points {
		if got[i] != nil {
			out[i] = *got[i]
			continue
		}
		line := service.SweepLine{Index: i, Name: points[i].Name, Hash: hashes[i]}
		if msg, ok := lastErr[i]; ok {
			line.Error = msg
		} else {
			line.Error = ErrRetriesExhausted.Error()
		}
		out[i] = line
	}
	return out
}

// missingIndexes lists the points that still need a clean line.
func missingIndexes(got []*service.SweepLine) []int {
	var idx []int
	for i, ln := range got {
		if ln == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// permanentError wraps rejections that retrying cannot fix.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

func permanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// retryAfterError carries a 503's Retry-After hint through to backoff.
type retryAfterError struct {
	err   error
	delay time.Duration
}

func (r *retryAfterError) Error() string { return r.err.Error() }
func (r *retryAfterError) Unwrap() error { return r.err }

// attempt posts the batch points (indexes into points) as a
// {"specs": [...]} document to one daemon and folds the streamed lines
// into got. Clean lines stick (their Index remapped from batch position
// to grid position); error lines only record lastErr so the point is
// retried. It returns the daemon's raw aggregate line when the stream
// completed. A transport error, 5xx or truncated stream is transient;
// lines received before the cut are kept.
func (f *Fleet) attempt(ctx context.Context, url string, points []*spec.Spec, batch []int, got []*service.SweepLine, lastErr map[int]string) (aggLine []byte, err error) {
	specs := make([]json.RawMessage, len(batch))
	for bi, oi := range batch {
		b, merr := json.Marshal(points[oi])
		if merr != nil {
			return nil, &permanentError{fmt.Errorf("sweepclient: encode point %d: %w", oi, merr)}
		}
		specs[bi] = b
	}
	body, merr := json.Marshal(map[string]any{"specs": specs})
	if merr != nil {
		return nil, &permanentError{fmt.Errorf("sweepclient: encode batch: %w", merr)}
	}

	req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if rerr != nil {
		return nil, &permanentError{rerr}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, derr := f.http.Do(req)
	if derr != nil {
		return nil, fmt.Errorf("sweepclient: %s: %w", url, derr)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := fmt.Errorf("sweepclient: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			if d := parseRetryAfter(resp.Header.Get("Retry-After")); d > 0 {
				return nil, &retryAfterError{err: serr, delay: d}
			}
			return nil, serr
		case resp.StatusCode >= 500:
			return nil, serr
		default:
			return nil, &permanentError{serr}
		}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"aggregate"`)) {
			aggLine = append([]byte(nil), line...)
			return append(aggLine, '\n'), nil
		}
		var ln service.SweepLine
		if uerr := json.Unmarshal(line, &ln); uerr != nil {
			return nil, fmt.Errorf("sweepclient: %s: bad line: %w", url, uerr)
		}
		if ln.Index < 0 || ln.Index >= len(batch) {
			return nil, fmt.Errorf("sweepclient: %s: point index %d outside batch of %d", url, ln.Index, len(batch))
		}
		oi := batch[ln.Index]
		if ln.Error != "" {
			lastErr[oi] = ln.Error
			continue
		}
		ln.Index = oi
		got[oi] = &ln
	}
	if serr := sc.Err(); serr != nil {
		return nil, fmt.Errorf("sweepclient: %s: stream cut: %w", url, serr)
	}
	return nil, fmt.Errorf("sweepclient: %s: stream ended before the aggregate line", url)
}

// backoffDelay computes a pre-retry delay: exponential from base,
// capped at max, with jitter in [delay/2, delay) so simultaneous
// clients desynchronize. A Retry-After hint raises the floor but is
// itself capped at max — a misbehaving daemon advertising an hour
// cannot stall the sweep past the configured ceiling.
func backoffDelay(base, max time.Duration, attempt int, cause error) time.Duration {
	delay := base << uint(attempt)
	if delay > max || delay <= 0 {
		delay = max
	}
	delay = delay/2 + rand.N(delay/2+1)
	var ra *retryAfterError
	if errors.As(cause, &ra) {
		hint := ra.delay
		if hint > max {
			hint = max
		}
		if hint > delay {
			delay = hint
		}
	}
	return delay
}

// parseRetryAfter reads both RFC 7231 forms of Retry-After:
// delta-seconds and HTTP-date (the latter converted to a delay against
// the local clock; a date in the past means "now", i.e. no delay).
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// WriteNDJSON writes the reassembled sweep stream: one line per point
// in point order, then the aggregate. rawAgg (from RunPoints) is
// relayed verbatim when present; otherwise the aggregate is rebuilt
// from the lines. A rebuilt aggregate cannot see the daemons' cache
// and store provenance, so its hit counters are zero — the table and
// ok/error counts are exact either way.
func WriteNDJSON(w io.Writer, lines []service.SweepLine, rawAgg []byte) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range lines {
		if err := enc.Encode(&lines[i]); err != nil {
			return err
		}
	}
	if rawAgg != nil {
		if _, err := bw.Write(rawAgg); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := enc.Encode(buildAggregate(lines)); err != nil {
		return err
	}
	return bw.Flush()
}

// buildAggregate reconstructs the aggregate line from settled lines.
func buildAggregate(lines []service.SweepLine) service.SweepAggregateLine {
	agg := service.SweepAggregate{
		Points: len(lines),
		Table:  make([]service.SweepTableRow, 0, len(lines)),
	}
	for _, ln := range lines {
		row := service.SweepTableRow{Index: ln.Index, Name: ln.Name, Hash: ln.Hash}
		if ln.Error != "" {
			row.Error = ln.Error
			agg.Errors++
		} else {
			agg.OK++
			var v service.ReportView
			if err := json.Unmarshal(ln.Report, &v); err == nil {
				row.Perf = v.Perf
				row.Committed = v.Stats.Committed
				row.Transitions = v.Stats.Transitions
				row.Rollbacks = v.Stats.Rollbacks
			}
		}
		agg.Table = append(agg.Table, row)
	}
	return service.SweepAggregateLine{Aggregate: agg}
}
