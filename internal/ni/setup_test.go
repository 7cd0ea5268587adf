package ni_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// setupJob is one generated program with its compiled form, as a campaign
// job hands them to its experiments.
type setupJob struct {
	prog *ast.Program
	code *eval.Compiled
}

// setupJobs parses and compiles the DefaultConfig programs of generation
// seeds 1..n.
func setupJobs(tb testing.TB, n int) []setupJob {
	tb.Helper()
	out := make([]setupJob, n)
	for i := range out {
		seed := int64(i + 1)
		src := gen.Random(rand.New(rand.NewSource(seed)), gen.DefaultConfig())
		prog, err := parser.Parse(fmt.Sprintf("gen-%d.p4", seed), src)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		code, err := eval.Compile(prog)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		out[i] = setupJob{prog, code}
	}
	return out
}

// jobRound runs one accepted job's NI stage on a fresh experiment: the
// first 4-trial round of the adaptive oracle, at the bottom observer.
func jobRound(tb testing.TB, j setupJob, lat lattice.Lattice, seed int64) {
	e := &ni.Experiment{Prog: j.prog, Lat: lat, Code: j.code}
	if _, _, err := e.RunN(4, seed); err != nil {
		tb.Fatal(err)
	}
}

// TestJobSetupAllocs bounds what a job's first NI round allocates on a
// fresh experiment, averaged over 200 generated programs: 39.9 when the
// bound was last tightened (45.9 before every bit<9> value was pre-boxed),
// of which a warm experiment's round (its trials' draws) is 6. The rest is the trial plan (one resolver, the parameters' type
// plans), the run buffers and input trees, and the machine pair; the
// generator comes from a pool.
func TestJobSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	jobs := setupJobs(t, 200)
	lat := lattice.TwoPoint()
	allocs := testing.AllocsPerRun(3, func() {
		for i, j := range jobs {
			jobRound(t, j, lat, int64(i))
		}
	}) / float64(len(jobs))
	t.Logf("%.1f allocs per fresh 4-trial round", allocs)
	if max := 44.0; allocs > max {
		t.Fatalf("a fresh 4-trial round allocates %.1f times per program, want at most %.0f", allocs, max)
	}
}

// BenchmarkJobSetup runs a fresh experiment's first 4-trial round over the
// 200 programs of TestJobSetupAllocs ("fresh"), and the same round on an
// experiment that already ran one ("warm"); ns/op and allocs/op are per
// program. Their difference is the per-job setup.
func BenchmarkJobSetup(b *testing.B) {
	jobs := setupJobs(b, 200)
	lat := lattice.TwoPoint()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jobRound(b, jobs[i%len(jobs)], lat, int64(i))
		}
	})
	b.Run("warm", func(b *testing.B) {
		exps := make([]*ni.Experiment, len(jobs))
		for i, j := range jobs {
			exps[i] = &ni.Experiment{Prog: j.prog, Lat: lat, Code: j.code}
			if _, _, err := exps[i].RunN(4, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := exps[i%len(exps)].RunN(4, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
