package campaign

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/parser"
)

// refRoundtrip is the full check roundtripDisagreement shortcuts: print,
// reparse and print again, whatever the source.
func refRoundtrip(name string, prog *ast.Program) (string, bool) {
	printed := ast.Print(prog)
	re, err := parser.Parse(name, printed)
	if err != nil {
		return "printed form does not reparse: " + err.Error(), true
	}
	if again := ast.Print(re); again != printed {
		return "print is not a fixed point after reparse", true
	}
	return "", false
}

// TestRoundtripShortcutAgrees: roundtripDisagreement returns what the
// full check returns on generated sources and their mutants (both
// print-canonical, so the reparse is skipped), on the regression corpus,
// and on hand-written sources whose print differs from their text (so
// the full path runs).
func TestRoundtripShortcutAgrees(t *testing.T) {
	canonical := 0
	check := func(name, src string) {
		t.Helper()
		prog, err := parser.Parse(name, src)
		if err != nil {
			return // the callers only check programs that parse
		}
		if ast.Print(prog) == src {
			canonical++
		}
		detail, bad := roundtripDisagreement(name, src, prog)
		refDetail, refBad := refRoundtrip(name, prog)
		if detail != refDetail || bad != refBad {
			t.Fatalf("%s: got (%q, %v), full check (%q, %v)\n%s", name, detail, bad, refDetail, refBad, src)
		}
	}

	for _, src := range []string{
		"control C(inout bit<8> x) { apply { x = x + 1; } }",
		"header h_t { <bit<8>, high> hi; <bit<8>, low> lo; }\nstruct headers { h_t d; }\ncontrol C(inout headers hdr) { apply { hdr.d.lo = hdr.d.hi; } }",
	} {
		before := canonical
		check("hand.p4", src)
		if canonical != before {
			t.Fatalf("hand-written source is print-canonical; it must exercise the full check:\n%s", src)
		}
	}

	files := 0
	err := filepath.WalkDir("../../testdata/regression-corpus", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".p4" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		check(path, string(src))
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no regression-corpus programs found")
	}

	generated, mutants := 0, 0
	for _, spec := range []string{"", "chain:4", "diamond"} {
		cfg := gen.DefaultConfig()
		cfg.Lattice = spec
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			name := fmt.Sprintf("gen-%s-%d.p4", spec, seed)
			src := gen.Random(rng, cfg)
			check(name, src)
			generated++
			res, err := mutate.Mutate(rng, name, src, mutate.Config{Lattice: spec})
			if err != nil {
				continue
			}
			before := canonical
			check("mut-"+name, res.Source)
			if canonical != before+1 {
				t.Fatalf("mutant of %s is not print-canonical:\n%s", name, res.Source)
			}
			mutants++
		}
	}
	if mutants < generated/2 {
		t.Fatalf("only %d mutants from %d generated programs", mutants, generated)
	}
	t.Logf("%d generated programs, %d mutants, %d print-canonical sources", generated, mutants, canonical)
}
