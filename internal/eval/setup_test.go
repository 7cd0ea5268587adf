package eval_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/parser"
)

// setupPrograms parses the DefaultConfig programs of generation seeds
// 1..n, the programs a default campaign's fresh jobs compile.
func setupPrograms(tb testing.TB, n int) []*ast.Program {
	tb.Helper()
	out := make([]*ast.Program, n)
	for i := range out {
		seed := int64(i + 1)
		src := gen.Random(rand.New(rand.NewSource(seed)), gen.DefaultConfig())
		prog, err := parser.Parse(fmt.Sprintf("gen-%d.p4", seed), src)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		out[i] = prog
	}
	return out
}

// TestCompileAllocs bounds what compiling one DefaultConfig program
// allocates, averaged over 200 generated programs: 27.2 when the bound was
// set. The resolver, the control and action records and one slab per node
// kind; nothing per scope, name lookup, field read, constant, binary
// operation, assignment or if.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	progs := setupPrograms(t, 200)
	allocs := testing.AllocsPerRun(3, func() {
		for _, prog := range progs {
			if _, err := eval.Compile(prog); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(progs))
	t.Logf("%.1f allocs per Compile", allocs)
	if max := 30.0; allocs > max {
		t.Fatalf("Compile allocates %.1f times per program, want at most %.0f", allocs, max)
	}
}

// BenchmarkCompile compiles the 200 generated programs of
// TestCompileAllocs; ns/op and allocs/op are per program.
func BenchmarkCompile(b *testing.B) {
	progs := setupPrograms(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Compile(progs[i%len(progs)]); err != nil {
			b.Fatal(err)
		}
	}
}
