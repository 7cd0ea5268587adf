package campaign

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lattice"
	"repro/internal/pipeline"
)

// copyCorpus clones the checked-in regression corpus's finding pairs into
// a fresh temp corpus (campaigns write state and index files; the
// checked-in seeds must stay pristine).
func copyCorpus(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	findings := filepath.Join(dir, "findings")
	if err := os.MkdirAll(findings, 0o755); err != nil {
		t.Fatal(err)
	}
	dirents, err := os.ReadDir(filepath.Join(from, "findings"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		if de.IsDir() || de.Name() == "index.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(from, "findings", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(findings, de.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeedPoolFiltersIncompatibleLattices: the checked-in regression
// corpus mixes two-point and chain:4 findings. A two-point campaign's
// seed pool must hold exactly the seeds whose labels two-point resolves
// — the filter is semantic, not a spec comparison: a chain:4 program
// annotated only with low/high remains a valid two-point seed, while one
// using L1/L2 does not. A chain:4 pool takes everything (low/high
// resolve there as aliases).
func TestSeedPoolFiltersIncompatibleLattices(t *testing.T) {
	dir := copyCorpus(t, "../../testdata/regression-corpus")
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the expectation independently of the filter's AST walk: a
	// regex scan of each source's annotation labels against {low, high}.
	labelRE := regexp.MustCompile(`,\s*([A-Za-z_][A-Za-z0-9_]*)>`)
	var total, resolvable, mixed int
	for e, err := range c.Entries() {
		if err != nil {
			t.Fatal(err)
		}
		total++
		src, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, m := range labelRE.FindAllStringSubmatch(src, -1) {
			if m[1] != "low" && m[1] != "high" {
				ok = false
			}
		}
		if ok {
			resolvable++
		}
		if e.Meta.Gen.Lattice == "chain:4" {
			mixed++
		}
	}
	if mixed == 0 || resolvable == total {
		t.Fatalf("regression corpus no longer exercises the filter: %d chain:4, %d/%d two-point-resolvable",
			mixed, resolvable, total)
	}

	pool, err := loadSeedPool(c, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pool.entries); got != resolvable {
		t.Errorf("two-point pool holds %d seeds, want the %d whose labels two-point resolves", got, resolvable)
	}
	wide, err := lattice.ByName("chain:4")
	if err != nil {
		t.Fatal(err)
	}
	widePool, err := loadSeedPool(c, wide)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(widePool.entries); got != total {
		t.Errorf("chain:4 pool holds %d seeds, want all %d", got, total)
	}
	nilPool, err := loadSeedPool(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nilPool.entries); got != total {
		t.Errorf("nil-lattice pool holds %d seeds, want all %d", got, total)
	}
}

// TestMixedLatticeCampaignNoUnknownLabels locks the seed-noise fix: a
// two-point mutation campaign over the mixed-lattice regression corpus
// must emit zero "unknown security label" resolve errors. Before the
// seed pool filtered by lattice compatibility, chain:4 seeds flowed into
// the two-point mutator and every mutant failed resolution with exactly
// that error, polluting the corpus with phantom runtime-error findings.
func TestMixedLatticeCampaignNoUnknownLabels(t *testing.T) {
	dir := copyCorpus(t, "../../testdata/regression-corpus")
	rep, err := Run(context.Background(), Config{
		Window: Window{Lo: 0, Hi: 60},
		Spec: Spec{
			Seed:       1,
			Gen:        smallGen(), // empty Lattice = two-point
			Budget:     pipeline.Budget{Trials: 2},
			Mutate:     true,
			MutateFrac: 1.0,
		},
		Corpus: openCorpus(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if strings.Contains(f.Detail, "unknown security label") {
			t.Errorf("campaign emitted an unknown-label finding: %s (%s)", f.Detail, f.Class)
		}
	}
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e, err := range c.Entries() {
		if err != nil {
			continue
		}
		if strings.Contains(e.Meta.Detail, "unknown security label") {
			t.Errorf("corpus polluted with unknown-label finding %s: %s", e.Name, e.Meta.Detail)
		}
	}
}
