package campaign

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// TestExhaustiveCampaignSplitsAndReplays runs a small campaign under the
// exhaustive oracle and locks the whole provenance chain: the old
// rejected-clean pool splits into proved-imprecise / secret-exhaustive /
// under-tested corpus classes, each finding records the oracle it was
// judged with, and Replay — which re-judges under the recorded oracle —
// reproduces every class. Generated programs carry ~47 bits of public
// standard_metadata, so their clean sweeps run in probe mode and land in
// secret-exhaustive, not proved-imprecise (which demands a total sweep).
func TestExhaustiveCampaignSplitsAndReplays(t *testing.T) {
	dir := t.TempDir()
	// One bit<8> + one bool secret field = 9 secret bits: inside the
	// default budget, so the enumerator actually proves things. (Two
	// fields put 17 secret bits per program, just over the 2^16 default:
	// every finding would be under-tested.)
	g := smallGen()
	g.NumFields = 1
	rep, err := Run(context.Background(), Config{
		Window:  Window{Lo: 0, Hi: 120},
		Spec:    Spec{Seed: 42, Gen: g, Budget: pipeline.Budget{Trials: 2, TrialsMax: 8, Oracle: "exhaustive"}},
		Workers: 2,
		Corpus:  openCorpus(t, dir),
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("campaign persisted no findings")
	}

	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	byClass := map[Class]int{}
	for e, err := range c.Entries() {
		if err != nil {
			t.Fatalf("entry: %v", err)
		}
		byClass[e.Meta.Class]++
		switch e.Meta.Class {
		case ClassProvedImprecise, ClassSecretExhausted, ClassUnderTested:
			if e.Meta.NIOracle != "exhaustive" {
				t.Errorf("%s: class %s recorded oracle %q, want exhaustive", e.Path, e.Meta.Class, e.Meta.NIOracle)
			}
		case ClassRejectedClean:
			t.Errorf("%s: rejected-clean persisted under the exhaustive oracle — the split must be total", e.Path)
		}
	}
	if byClass[ClassSecretExhausted] == 0 {
		t.Fatalf("no secret-exhaustive findings in %v — the enumerator never certified a rejection", byClass)
	}
	if byClass[ClassProvedImprecise] != 0 {
		t.Fatalf("%d proved-imprecise findings in %v — generated publics exceed the budget, so no sweep can be total", byClass[ClassProvedImprecise], byClass)
	}

	rr, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rr.OK() {
		t.Fatalf("exhaustive-oracle corpus does not replay clean:\n%s", FormatReplayReport(rr))
	}
}
