package campaign

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/ni"
	"repro/internal/pipeline"
)

// TestRegressionCorpusExhaustiveVerdicts locks the exhaustive oracle's
// coverage guarantee over the committed regression corpus: every entry
// whose secret space fits the budget must get a proof-grade verdict —
// the only admissible inconclusive reason is a genuine width-budget
// overflow. The split this induces (secret-exhaustive vs under-tested;
// proved-imprecise would additionally need the public side inside the
// budget, which generated programs' standard_metadata rules out) is the
// verdict table EXPERIMENTS.md records.
func TestRegressionCorpusExhaustiveVerdicts(t *testing.T) {
	c, err := corpus.Open("../../testdata/regression-corpus")
	if err != nil {
		t.Fatalf("open regression corpus: %v", err)
	}
	split := map[difftest.Verdict]int{}
	for e, err := range c.Entries() {
		if err != nil {
			t.Fatalf("corpus entry: %v", err)
		}
		src, err := e.Source()
		if err != nil {
			t.Fatalf("%s: %v", e.Path, err)
		}
		lat, err := e.Meta.Gen.ResolveLattice()
		if err != nil {
			t.Fatalf("%s: lattice: %v", e.Path, err)
		}
		r := pipeline.Analyze(pipeline.Job{Name: e.Name, Source: src, Lat: lat}, pipeline.Options{
			NI:     true,
			Budget: pipeline.Budget{Trials: e.Meta.NITrials, TrialsMax: e.Meta.NITrialsMax, Oracle: pipeline.OracleExhaustive},
			NISeed: e.Meta.NISeed,
		})
		if r.NIOracle != "exhaustive" {
			t.Fatalf("%s: ran oracle %q, want exhaustive", e.Path, r.NIOracle)
		}
		switch r.NIOutcome {
		case ni.ProvedSecure, ni.ProvedInsecure:
			// Proof-grade: the acceptance bar for within-budget entries.
		case ni.Inconclusive:
			if r.NIReason != "width-budget-exceeded" {
				t.Errorf("%s: inconclusive for %q — an eligible entry did not get a proof", e.Path, r.NIReason)
			}
		default:
			t.Errorf("%s: outcome %v from the exhaustive oracle", e.Path, r.NIOutcome)
		}
		v, _ := difftest.Classify(&r)
		split[v]++
	}
	if split[difftest.ProvedImprecise]+split[difftest.SecretExhausted] == 0 {
		t.Error("no regression-corpus entry certified (proved-imprecise or secret-exhaustive) — the enumerator never completed a sweep")
	}
	for v, n := range split {
		t.Logf("verdict split: %-50s %d", v.String(), n)
	}
}
