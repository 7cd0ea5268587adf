// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// pair per Table 1 row (baseline vs P4BID on the same program), plus the
// scaling sweeps and ablations described in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/pipeline"
	"repro/internal/progs"
)

// benchCheck parses+checks src with the IFC checker once per iteration.
func benchCheck(b *testing.B, lat repro.Lattice, file, src string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := repro.Parse(file, src)
		if err != nil {
			b.Fatal(err)
		}
		if res := repro.Check(prog, lat); !res.OK {
			b.Fatal(res.Err())
		}
	}
}

func benchBaseCheck(b *testing.B, file, src string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := repro.Parse(file, src)
		if err != nil {
			b.Fatal(err)
		}
		if res := repro.CheckBase(prog); !res.OK {
			b.Fatal(res.Err())
		}
	}
}

// BenchmarkTable1 has one sub-benchmark pair per Table 1 row: the
// unannotated program through the baseline checker ("Unannotated") and the
// annotated secure program through P4BID ("Annotated"). The paper reports
// an average overhead of about 5%.
func BenchmarkTable1(b *testing.B) {
	for _, p := range repro.CaseStudies() {
		if p.Name == "NetChain" || p.Name == "Stateful" {
			continue // not a Table 1 row
		}
		p := p
		b.Run(p.Name+"/Unannotated", func(b *testing.B) {
			benchBaseCheck(b, p.FileName(repro.Unannotated), p.Source(repro.Unannotated))
		})
		b.Run(p.Name+"/Annotated", func(b *testing.B) {
			benchCheck(b, p.Lattice(), p.FileName(repro.Fixed), p.Source(repro.Fixed))
		})
	}
}

// BenchmarkTable1Report prints the assembled Table 1 once, in the paper's
// format, so `go test -bench Table1Report` regenerates the artifact.
func BenchmarkTable1Report(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(25)
		if i == 0 {
			b.Log("\n" + bench.FormatTable1(rows))
		}
	}
}

// BenchmarkScalingBySize extends Table 1 with synthetic programs of
// growing size (tables × actions); both checkers should scale linearly
// with a small constant gap.
func BenchmarkScalingBySize(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		src := gen.Synth(n, 4, 8)
		stripped := progs.StripAnnotations(src)
		b.Run(fmt.Sprintf("tables=%d/Base", n), func(b *testing.B) {
			benchBaseCheck(b, "synth.p4", stripped)
		})
		b.Run(fmt.Sprintf("tables=%d/P4BID", n), func(b *testing.B) {
			benchCheck(b, repro.TwoPoint(), "synth.p4", src)
		})
	}
}

// BenchmarkScalingByLattice measures checker time as the lattice grows
// (chains of height h); lattice operations are table lookups, so the cost
// should stay near-flat.
func BenchmarkScalingByLattice(b *testing.B) {
	for _, h := range []int{2, 8, 32} {
		src := gen.SynthChainLabels(h)
		lat := lattice.Chain(h)
		b.Run(fmt.Sprintf("height=%d", h), func(b *testing.B) {
			benchCheck(b, lat, "chain.p4", src)
		})
	}
}

// BenchmarkEffectInference isolates the write-effect (pc_fn) inference
// ablation of DESIGN.md: a program that is all function declarations
// stresses the inference, one that is all apply-block statements does not.
func BenchmarkEffectInference(b *testing.B) {
	manyActions := gen.Synth(16, 8, 8) // 128 actions to infer pc_fn for
	flat := gen.SynthChainLabels(2)
	b.Run("many-actions", func(b *testing.B) {
		benchCheck(b, repro.TwoPoint(), "acts.p4", manyActions)
	})
	b.Run("flat-apply", func(b *testing.B) {
		benchCheck(b, lattice.Chain(2), "flat.p4", flat)
	})
}

// BenchmarkParseOnly separates frontend cost from checking cost.
func BenchmarkParseOnly(b *testing.B) {
	p, _ := repro.CaseStudyByName("D2R")
	src := p.Source(repro.Fixed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Parse("d2r.p4", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatticeOps measures raw lattice operation cost across stock
// lattices.
func BenchmarkLatticeOps(b *testing.B) {
	for _, tc := range []struct {
		name string
		lat  repro.Lattice
	}{
		{"two-point", lattice.TwoPoint()},
		{"diamond", lattice.Diamond()},
		{"powerset-6", lattice.Powerset("a", "b", "c", "d", "e", "f")},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			es := tc.lat.Elements()
			for i := 0; i < b.N; i++ {
				x := es[i%len(es)]
				y := es[(i*7+3)%len(es)]
				_ = tc.lat.Join(x, y)
				_ = tc.lat.Meet(x, y)
				_ = tc.lat.Leq(x, y)
			}
		})
	}
}

// BenchmarkInterpreter measures packet-processing throughput of the
// evaluator on the fixed Cache program with a hitting entry.
func BenchmarkInterpreter(b *testing.B) {
	p, _ := repro.CaseStudyByName("Cache")
	prog := repro.MustParse("cache.p4", p.Source(repro.Fixed))
	cp := repro.NewControlPlane()
	cp.DeclareTable("fetch_from_cache", []string{"exact"})
	if err := cp.Install("fetch_from_cache", repro.Entry{
		Patterns: []repro.Pattern{repro.Exact(8, 42)},
		Action:   "cache_hit", Args: []uint64{7},
	}); err != nil {
		b.Fatal(err)
	}
	in, err := repro.NewInterp(prog, cp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.RunControl("", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNITrial measures the cost of one randomized non-interference
// trial on the fixed NetChain program.
func BenchmarkNITrial(b *testing.B) {
	p, _ := repro.CaseStudyByName("NetChain")
	prog := repro.MustParse("netchain.p4", p.Source(repro.Fixed))
	e := &ni.Experiment{Prog: prog, Lat: p.Lattice()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomProgramGeneration measures the fuzzing generator.
func BenchmarkRandomProgramGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := gen.DefaultConfig()
	for i := 0; i < b.N; i++ {
		_ = gen.Random(rng, cfg)
	}
}

// BenchmarkPipeline measures batch-analysis throughput over a 200-program
// generated corpus: the sequential path (workers=1) against the full
// worker pool. On >= 4 cores the pool should win by >= 3x; compare the
// two sub-benchmarks' ns/op (see also `p4bench -pipeline`).
func BenchmarkPipeline(b *testing.B) {
	jobs := bench.PipelineCorpus(200, 1)
	run := func(b *testing.B, workers int) {
		b.ReportMetric(float64(len(jobs)), "programs/batch")
		for i := 0; i < b.N; i++ {
			sum, err := pipeline.Run(context.Background(), jobs, pipeline.Options{
				Workers: workers,
				NI:      pipeline.NIAccepted,
				NISeed:  1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Parsed != len(jobs) {
				b.Fatalf("only %d/%d programs parsed", sum.Parsed, len(jobs))
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		run(b, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkDiffFuzz measures the differential fuzzing harness end to end
// (generation + all stages + NI on every base-accepted program).
func BenchmarkDiffFuzz(b *testing.B) {
	s, err := repro.NewSession(repro.WithSeed(1), repro.WithNIBudget(4, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < b.N; i++ {
		rep, err := s.DiffFuzz(context.Background(), 100)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("fuzzing found defects:\n%s", repro.FormatFuzzReport(rep))
		}
	}
}
