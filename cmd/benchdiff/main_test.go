package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  map[string]float64
	}{
		{
			name: "best of -count runs",
			input: `goos: linux
BenchmarkHostThroughput/als-2   	100	 2000 ns/op	 2400000 target-cyc/s
BenchmarkHostThroughput/als-2   	100	 2100 ns/op	 2500000 target-cyc/s
BenchmarkHostThroughput/als-2   	100	 2200 ns/op	 2100000 target-cyc/s
PASS`,
			want: map[string]float64{"HostThroughput/als": 2500000},
		},
		{
			name:  "procs suffix stripped",
			input: "BenchmarkRemoteChannel/rtt=2ms/predictive-16 \t 10\t 5 ns/op\t 4579 target-cyc/s\n",
			want:  map[string]float64{"RemoteChannel/rtt=2ms/predictive": 4579},
		},
		{
			// At GOMAXPROCS=1 go test prints no -procs suffix; a
			// trailing non-numeric segment must survive.
			name:  "no suffix at GOMAXPROCS=1",
			input: "BenchmarkHostThroughput/als-rollback-heavy \t 10\t 5 ns/op\t 736756 target-cyc/s\n",
			want:  map[string]float64{"HostThroughput/als-rollback-heavy": 736756},
		},
		{
			name:  "benchmem columns",
			input: "BenchmarkHostThroughput/multimaster-2 \t 200\t 12317521 ns/op\t 405926 target-cyc/s\t 0 B/op\t 0 allocs/op\n",
			want:  map[string]float64{"HostThroughput/multimaster": 405926},
		},
		{
			name:  "other metrics ignored",
			input: "BenchmarkTable2ALS/p=1.000-2 \t 1\t 5 ns/op\t 231.2 modeled-kcyc/s\n",
			want:  map[string]float64{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBench(strings.NewReader(tc.input), "target-cyc/s")
			if err != nil {
				t.Fatal(err)
			}
			if got.Metric != "target-cyc/s" {
				t.Errorf("Metric = %q", got.Metric)
			}
			if !reflect.DeepEqual(got.Benchmarks, tc.want) {
				t.Errorf("Benchmarks = %v, want %v", got.Benchmarks, tc.want)
			}
		})
	}
}

func TestParseBenchRejectsBadValue(t *testing.T) {
	in := "BenchmarkHostThroughput/als-2 \t 100\t 2000 ns/op\t fast target-cyc/s\n"
	if _, err := parseBench(strings.NewReader(in), "target-cyc/s"); err == nil {
		t.Fatal("parsed a non-numeric metric value")
	}
}

func TestCompare(t *testing.T) {
	base := &Results{Benchmarks: map[string]float64{"a": 100, "b": 100, "gone": 100}}
	cases := []struct {
		name       string
		current    map[string]float64
		regression map[string]bool
		missing    []string
		news       []string
	}{
		{
			// 75/100 is exactly 1-0.25: at the boundary, not past it.
			name:       "boundary passes",
			current:    map[string]float64{"a": 75, "b": 120, "gone": 100},
			regression: map[string]bool{"a": false, "b": false, "gone": false},
		},
		{
			name:       "below boundary fails",
			current:    map[string]float64{"a": 74.9, "b": 100, "gone": 100},
			regression: map[string]bool{"a": true, "b": false, "gone": false},
		},
		{
			name:       "missing benchmark",
			current:    map[string]float64{"a": 100, "b": 100},
			regression: map[string]bool{"a": false, "b": false},
			missing:    []string{"gone"},
		},
		{
			name:       "new benchmark reported, not gated",
			current:    map[string]float64{"a": 100, "b": 100, "gone": 100, "fresh": 1},
			regression: map[string]bool{"a": false, "b": false, "gone": false},
			news:       []string{"fresh"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verdicts, missing, news := compare(base, &Results{Benchmarks: tc.current}, 0.25)
			got := map[string]bool{}
			for _, v := range verdicts {
				got[v.Name] = v.Regression
			}
			if !reflect.DeepEqual(got, tc.regression) {
				t.Errorf("regressions = %v, want %v", got, tc.regression)
			}
			if !reflect.DeepEqual(missing, tc.missing) {
				t.Errorf("missing = %v, want %v", missing, tc.missing)
			}
			if !reflect.DeepEqual(news, tc.news) {
				t.Errorf("news = %v, want %v", news, tc.news)
			}
		})
	}
}
