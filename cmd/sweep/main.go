// Command sweep runs a declarative sweep document (a spec plus a
// "sweep" grid block, see internal/spec) over the co-emulation engine,
// in-process on a local worker pool or remotely against coemud
// daemons, and streams one NDJSON result line per point, in point
// order, plus a final aggregate line — the same wire format coemud's
// /v1/sweep serves, byte-identical line for line:
//
//	sweep -grid experiments/des_accuracy.json -j 4
//	sweep -grid experiments/des_lob.json -remote http://host:8080
//
// -grid is required; a plain spec is a one-point sweep document.
//
// With -remote http://host:8080[,http://host2:8080], runs are not
// executed in this process. The document is expanded locally and its
// points handed to one sweepclient.Fleet, which shards them across the
// listed daemons by consistent hash (one URL is a one-member fleet).
// The runs share the daemons' worker pools, result caches and
// persistent store with every other client. Remote submission is
// resilient: failed rounds retry with exponential backoff (-retries
// bounds the rounds), a health prober evicts dead daemons and
// re-shards only their unfinished points onto survivors, and points
// whose results already sit in the daemons' shared store are spliced
// via /v1/results/{hash} instead of re-run (see internal/sweepclient).
//
// With -resume journal.ndjson (remote mode), completed point hashes
// are journaled durably as the sweep streams; re-running the same
// invocation after a crash restores the journaled points from the
// daemons' store and submits only the remainder, so an interrupted
// sweep restarts exactly where it stopped.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"coemu"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

// jobs is the local worker-pool width (the -j flag).
var jobs int

func main() {
	gridPath := flag.String("grid", "", "sweep document to expand and run, streaming NDJSON results to stdout (required)")
	remote := flag.String("remote", "", "comma-separated coemud base URLs; shard the sweep across the daemon fleet instead of in-process runs")
	retries := flag.Int("retries", sweepclient.DefaultRetries, "remote mode: how many failed rounds (daemon down, 5xx, cut stream, failed points) to retry before settling unfinished points with their last error")
	resume := flag.String("resume", "", "remote mode: crash-safe resume journal path; journals completed point hashes and skips them on re-run")
	flag.IntVar(&jobs, "j", runtime.NumCPU(), "parallel engine runs (local mode)")
	flag.Parse()
	if jobs < 1 {
		jobs = 1
	}
	if *gridPath == "" {
		fmt.Fprintln(os.Stderr, "sweep: -grid is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := runGrid(*gridPath, splitRemotes(*remote), *retries, *resume, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runGrid expands a sweep document and streams the NDJSON results —
// locally on the worker pool, or sharded across a coemud fleet with
// -remote.
func runGrid(path string, remotes []string, retries int, resume string, w io.Writer) error {
	if resume != "" && len(remotes) == 0 {
		return fmt.Errorf("-resume needs -remote: local grid runs have no fleet store to restore from")
	}
	// Expanding before any daemon is contacted makes a bad document
	// fail with a spec error rather than an HTTP one, and lets retry
	// rounds re-submit individual points.
	ss, err := spec.LoadSweep(path)
	if err != nil {
		return err
	}
	points, err := ss.Expand()
	if err != nil {
		return err
	}
	if len(remotes) > 0 {
		var journal *sweepclient.Journal
		if resume != "" {
			if journal, err = sweepclient.OpenJournal(resume); err != nil {
				return err
			}
			defer journal.Close()
		}
		// Membership and retry decisions log to stderr so they don't
		// pollute the NDJSON stream on stdout.
		fleet, err := sweepclient.NewFleet(sweepclient.FleetOptions{
			URLs:    remotes,
			Retries: retries,
			Journal: journal,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer fleet.Close()
		lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
		if err != nil {
			return err
		}
		return sweepclient.WriteNDJSON(w, lines, rawAgg)
	}

	type outcome struct {
		res *service.Result
		err error
	}
	results := parMap(len(points), func(i int) outcome {
		rep, err := runPoint(points[i])
		if err != nil {
			return outcome{err: err}
		}
		res, err := service.NewResult(rep)
		return outcome{res: res, err: err}
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	agg := service.NewSweepAggregator(len(points))
	for i, o := range results {
		pr := service.PointResult{Index: i, Name: points[i].Name, Result: o.res, Err: o.err}
		if h, err := points[i].CanonicalHash(); err == nil {
			pr.Hash = h
		}
		if err := enc.Encode(agg.Add(pr)); err != nil {
			return err
		}
	}
	if err := enc.Encode(agg.Line()); err != nil {
		return err
	}
	return bw.Flush()
}

// runPoint compiles and runs one expanded spec in-process.
func runPoint(sp *spec.Spec) (*coemu.Report, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return coemu.Run(d, cfg, sp.Run.Cycles)
}

// parMap computes f(0..n-1) on a pool of jobs workers and returns the
// results in index order. Each engine run is independent and
// single-threaded, so the sweeps scale with cores while the output
// rows stay in their deterministic order.
func parMap[T any](n int, f func(i int) T) []T {
	res := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	workers := jobs
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return res
}

// splitRemotes parses the comma-separated -remote list.
func splitRemotes(remote string) []string {
	var urls []string
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
