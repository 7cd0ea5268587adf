// Pipeline throughput sweep: sequential vs parallel batch analysis over a
// generated corpus, reported as wall-clock and speedup per worker count.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/pipeline"
)

// PipelineRow is one measured worker count.
type PipelineRow struct {
	Workers  int
	Elapsed  time.Duration
	Speedup  float64 // vs the lowest-worker-count row of the sweep
	PerProg  time.Duration
	Programs int
}

// PipelineCorpus generates a deterministic corpus of n random programs for
// the throughput sweep (same seed → same corpus, so rows are comparable).
func PipelineCorpus(n int, seed int64) []pipeline.Job {
	lat := lattice.TwoPoint()
	cfg := gen.DefaultConfig()
	jobs := make([]pipeline.Job, n)
	for i := range jobs {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		jobs[i] = pipeline.Job{
			Name:   fmt.Sprintf("corpus-%d.p4", i),
			Source: gen.Random(rng, cfg),
			Lat:    lat,
		}
	}
	return jobs
}

// PipelineSweep batch-analyzes the corpus once per worker count, with the
// NI stage on (accepted programs only) so every stage contributes. A
// workerCounts of nil sweeps 1, 2, 4, ... up to GOMAXPROCS.
func PipelineSweep(jobs []pipeline.Job, workerCounts []int) []PipelineRow {
	if workerCounts == nil {
		max := runtime.GOMAXPROCS(0)
		for w := 1; w <= max; w *= 2 {
			workerCounts = append(workerCounts, w)
		}
		if last := workerCounts[len(workerCounts)-1]; last != max {
			workerCounts = append(workerCounts, max)
		}
	}
	var rows []PipelineRow
	for _, w := range workerCounts {
		sum, err := pipeline.Run(context.Background(), jobs, pipeline.Options{
			Workers: w,
			NI:      pipeline.NIAccepted,
			Budget:  pipeline.Budget{Trials: 8},
			NISeed:  1,
		})
		if err != nil {
			panic(err)
		}
		row := PipelineRow{
			Workers:  sum.Workers,
			Elapsed:  sum.Elapsed,
			Programs: len(jobs),
		}
		if len(jobs) > 0 {
			row.PerProg = sum.Elapsed / time.Duration(len(jobs))
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return rows
	}
	// Normalize every speedup against the lowest-worker-count row, so the
	// baseline is the same for the whole table whatever order (or subset)
	// of counts the caller asked for.
	base := 0
	for i := range rows {
		if rows[i].Workers < rows[base].Workers {
			base = i
		}
	}
	for i := range rows {
		if rows[i].Elapsed > 0 {
			rows[i].Speedup = float64(rows[base].Elapsed) / float64(rows[i].Elapsed)
		}
	}
	return rows
}

// FormatPipeline renders the sweep.
func FormatPipeline(rows []PipelineRow) string {
	var b strings.Builder
	n := 0
	if len(rows) > 0 {
		n = rows[0].Programs
	}
	fmt.Fprintf(&b, "Pipeline throughput: %d-program corpus, parse→resolve→base→IFC→NI per program.\n", n)
	fmt.Fprintf(&b, "%8s %14s %14s %10s\n", "workers", "wall-clock", "per program", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14v %14v %9.2fx\n",
			r.Workers, r.Elapsed.Round(time.Microsecond), r.PerProg.Round(time.Microsecond), r.Speedup)
	}
	return b.String()
}
