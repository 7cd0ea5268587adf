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
	"strings"
	"testing"
	"time"

	"repro"
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
// format, so `go test -bench Table1Report -v` regenerates the artifact.
func BenchmarkTable1Report(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := table1(b, 25)
		if i == 0 {
			b.Log("\n" + formatTable1(rows))
		}
	}
}

// table1Row is one measured row of Table 1.
type table1Row struct {
	program     string
	baseMs      float64 // unannotated program through the base checker
	p4bidMs     float64 // annotated program through the IFC checker
	overheadPct float64
}

// table1 measures the five Table 1 programs in the paper's order,
// averaging each measurement over reps runs after one warm-up run. The
// final row is the average, as in the paper.
func table1(tb testing.TB, reps int) []table1Row {
	tb.Helper()
	measure := func(f func() bool) float64 {
		if !f() {
			tb.Fatal("a Table 1 program failed its check")
		}
		start := time.Now()
		for range reps {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps) / 1e6
	}
	var rows []table1Row
	var sumBase, sumIFC float64
	for _, name := range []string{"D2R", "App", "Lattice", "Topology", "Cache"} {
		p, _ := repro.CaseStudyByName(name)
		lat := p.Lattice()
		unannotated, annotated := p.Source(repro.Unannotated), p.Source(repro.Fixed)
		baseMs := measure(func() bool {
			prog, err := repro.Parse("bench.p4", unannotated)
			return err == nil && repro.CheckBase(prog).OK
		})
		ifcMs := measure(func() bool {
			prog, err := repro.Parse("bench.p4", annotated)
			return err == nil && repro.Check(prog, lat).OK
		})
		rows = append(rows, table1Row{name, baseMs, ifcMs, 100 * (ifcMs - baseMs) / baseMs})
		sumBase += baseMs
		sumIFC += ifcMs
	}
	n := float64(len(rows))
	return append(rows, table1Row{"Average", sumBase / n, sumIFC / n, 100 * (sumIFC - sumBase) / sumBase})
}

// TestTable1Shape: the Table 1 harness measures the five programs and
// the average in the paper's order, and renders the paper's layout.
func TestTable1Shape(t *testing.T) {
	rows := table1(t, 3)
	order := []string{"D2R", "App", "Lattice", "Topology", "Cache", "Average"}
	if len(rows) != len(order) {
		t.Fatalf("%d rows, want %d", len(rows), len(order))
	}
	for i, want := range order {
		if rows[i].program != want || rows[i].baseMs <= 0 || rows[i].p4bidMs <= 0 {
			t.Errorf("row %d = %+v, want %s with positive timings", i, rows[i], want)
		}
	}
	if out := formatTable1(rows); !strings.HasPrefix(out, "Table 1: Typechecking time in milliseconds.") {
		t.Errorf("formatted table:\n%s", out)
	}
}

// formatTable1 renders rows in the paper's layout.
func formatTable1(rows []table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Typechecking time in milliseconds.\n")
	fmt.Fprintf(&b, "%-10s %18s %18s %10s\n", "Program", "Unannotated, base", "Annotated, P4BID", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %18.3f %18.3f %+9.1f%%\n", r.program, r.baseMs, r.p4bidMs, r.overheadPct)
	}
	return b.String()
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
// generated corpus, every stage including NI on each base-accepted
// program: the sequential path (workers=1) against the full worker pool.
// On >= 4 cores the pool should win by >= 3x; compare the two
// sub-benchmarks' ns/op.
func BenchmarkPipeline(b *testing.B) {
	jobs := pipelineCorpus(200, 1)
	run := func(b *testing.B, workers int) {
		b.ReportMetric(float64(len(jobs)), "programs/batch")
		for i := 0; i < b.N; i++ {
			sum, err := pipeline.Run(context.Background(), jobs, pipeline.Options{
				Workers: workers,
				NI:      true,
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

// pipelineCorpus generates a deterministic corpus of n random two-point
// programs: same seed, same corpus, so runs are comparable.
func pipelineCorpus(n int, seed int64) []pipeline.Job {
	cfg := gen.DefaultConfig()
	jobs := make([]pipeline.Job, n)
	for i := range jobs {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		jobs[i] = pipeline.Job{Name: fmt.Sprintf("corpus-%d.p4", i), Source: gen.Random(rng, cfg), Lat: lattice.TwoPoint()}
	}
	return jobs
}

// BenchmarkCampaign measures a corpus-less differential fuzzing campaign
// end to end (generation + all stages + NI on every base-accepted program
// + the parser roundtrip) at the default adaptive NI budget.
func BenchmarkCampaign(b *testing.B) {
	s, err := repro.NewSession(repro.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < b.N; i++ {
		rep, err := s.Campaign(context.Background(), 100)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("fuzzing found defects:\n%s", repro.FormatCampaignReport(rep))
		}
	}
}
