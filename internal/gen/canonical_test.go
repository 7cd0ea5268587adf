package gen_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/parser"
)

// canonicalGrid calls visit on every (config, seed) pair of the
// print-canonical grid, in a fixed order: lattice, field count, actions,
// then seeds 0–399 on DefaultConfig's depth and statement bounds.
func canonicalGrid(visit func(name string, cfg gen.Config, seed int64)) {
	for _, spec := range []string{"", "chain:4", "diamond", "nparty:3", "powerset:2"} {
		for fields := 1; fields <= 3; fields++ {
			for _, actions := range []bool{false, true} {
				cfg := gen.DefaultConfig()
				cfg.Lattice, cfg.NumFields, cfg.WithActions = spec, fields, actions
				for seed := int64(0); seed < 400; seed++ {
					visit(fmt.Sprintf("%q-f%d-a%t-%d.p4", spec, fields, actions, seed), cfg, seed)
				}
			}
		}
	}
}

// TestRandomIsPrintCanonical: every generated program is already in
// ast.Print's form, so the campaign's round-trip check takes its
// shortcut on every generated job.
func TestRandomIsPrintCanonical(t *testing.T) {
	canonicalGrid(func(name string, cfg gen.Config, seed int64) {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		prog, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s does not parse: %v\n%s", name, err, src)
		}
		if printed := ast.Print(prog); printed != src {
			t.Fatalf("%s is not print-canonical:\n--- generated\n%s--- printed\n%s", name, src, printed)
		}
	})
}

// TestRandomProgramsUnchanged pins the programs Random generates, up to
// formatting: the digest of every grid program's canonical print.
// Recorded regen seeds (corpus Meta.GenSeed, campaign indices) therefore
// keep regenerating the same programs.
func TestRandomProgramsUnchanged(t *testing.T) {
	const want = "ba52fbbaf0c55f655c743c4fb4d2bcdb2d6fd7c1e79ea17c897c17fc6e01ed6a"
	h := sha256.New()
	canonicalGrid(func(_ string, cfg gen.Config, seed int64) {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		h.Write([]byte(ast.Print(parser.MustParse("x.p4", src))))
	})
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("canonical prints of the grid hash to %s, want %s: Random generates different programs", got, want)
	}
}

// TestRandomAllocs bounds what one DefaultConfig program costs to
// generate: the builder's growth and the generator, nothing per
// statement or expression.
func TestRandomAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(200, func() { gen.Random(rng, gen.DefaultConfig()) })
	t.Logf("%.0f allocs per Random", allocs)
	if max := 50.0; allocs > max {
		t.Fatalf("Random allocates %.0f times per program, want at most %.0f", allocs, max)
	}
}
