// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public API for a fixed time, checks every
// verdict it gets against a known answer, and prints each metric by name
// with its unit. With --trace 1 it runs the same workload's calls into each
// layer under spans instead and prints the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload typecheck --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// README.md describes the workloads, the metrics and what each layer's
// numbers are predicted to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome: the correctness tally and the metrics.
type result struct {
	attempted, failed int
	// broken records a failed self-consistency check of the benchmark
	// itself (a traced replay that disagrees with the run it replays);
	// it makes the run incorrect without being a failed operation.
	broken  []string
	metrics []metric
	// notes are informational lines printed before the metrics: values
	// that depend on scheduling and so are never compared.
	notes []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload for the given time and seed; traced selects
// the per-layer run. work is a scratch directory inside the checkout.
type workload func(ctx context.Context, seed int64, seconds time.Duration, traced bool, work string) (*result, error)

var workloads = map[string]workload{
	"typecheck": runTypecheck,
	"campaign-adaptive": func(ctx context.Context, seed int64, d time.Duration, traced bool, work string) (*result, error) {
		return runCampaignWorkload(ctx, adaptiveWorkload, seed, d, traced, work)
	},
	"campaign-exhaustive": func(ctx context.Context, seed int64, d time.Duration, traced bool, work string) (*result, error) {
		return runCampaignWorkload(ctx, exhaustiveWorkload, seed, d, traced, work)
	},
}

func main() {
	name := flag.String("workload", "typecheck", "workload: typecheck, campaign-adaptive, or campaign-exhaustive")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := runOne(run, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := report(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// runOne runs a workload in a fresh scratch directory under .bench_build,
// which it removes afterwards.
func runOne(run workload, seed int64, d time.Duration, traced bool) (*result, error) {
	if _, err := os.Stat(seedCorpusDir); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	res, err := run(context.Background(), seed, d, traced, work)
	if err != nil {
		return nil, err
	}
	if !traced {
		res.add("max_rss_mb", maxRSSMB(), "MB")
	}
	return res, nil
}

// report prints the notes and every metric as "name value unit" lines and
// returns the final JSON line.
func report(res *result) (string, error) {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, b := range res.broken {
		fmt.Println("# BENCHMARK CHECK FAILED:", b)
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("error_rate %.6g fraction (%d failed of %d attempted)\n", errRate, res.failed, res.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is not finite", m.name)
		}
		if _, dup := out[m.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.name)
		}
		out[m.name] = value{m.value, m.unit}
		fmt.Printf("%s %.6g %s\n", m.name, m.value, m.unit)
	}
	if res.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && len(res.broken) == 0, res.attempted, res.failed, out})
	return string(raw), err
}

// windows is how many parts a run's measurements are split into: each
// end-to-end figure is the median of its per-window values, so that a burst
// of load from outside the benchmark moves at most a few of them.
const windows = 10

// seedCorpusDir is the checked-in regression corpus, relative to the
// repository root: the typecheck workload checks its entries and the
// campaigns start from a copy of it.
var seedCorpusDir = filepath.Join("testdata", "regression-corpus")

// quantile returns the q-quantile of xs by the nearest-rank method; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return ys[n/2]
	default:
		return (ys[n/2-1] + ys[n/2]) / 2
	}
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
