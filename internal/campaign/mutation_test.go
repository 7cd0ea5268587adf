package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/pipeline"
)

// seedCorpus runs a small plain campaign into dir so later runs have a
// seed pool, and returns the number of findings persisted.
func seedCorpus(t *testing.T, dir string, cfg Config) int {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("seeding campaign: %v", err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("seeding campaign persisted nothing; mutation tests need a pool")
	}
	return rep.NewFindings
}

// copyFindings clones src/findings into dst so several corpus dirs share
// one seed-pool snapshot — the precondition under which mutation-enabled
// windows stay partition-exact.
func copyFindings(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dst, "findings"), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(src, "findings"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, "findings", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "findings", e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyNoveltyState clones src/state's novelty-*.json files into dst so
// window dirs share the full scheduling snapshot — findings and novelty
// records — under which mutation-enabled windows stay partition-exact.
func copyNoveltyState(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(src, "state"))
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dst, "state"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "novelty-") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, "state", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "state", e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMutationWindowUnion runs a mutation-enabled campaign over [0, 90)
// once and as three windows, every run starting from its own copy of the
// corpus snapshot at seedDir, and requires the windows' union to equal the
// whole-span run: analyzed programs, mutant jobs, verdict counts, and
// finding keys.
func checkMutationWindowUnion(t *testing.T, seedDir string) {
	t.Helper()
	const n = 90
	mk := func(w Window) (*Report, map[string]corpus.Meta) {
		dir := t.TempDir()
		copyFindings(t, seedDir, dir)
		copyNoveltyState(t, seedDir, dir)
		rep, err := Run(context.Background(), Config{
			Window:    w,
			Spec:      Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
			Workers:   2,
			CorpusDir: dir,
		})
		if err != nil {
			t.Fatalf("window [%d, %d): %v", w.Lo, w.Hi, err)
		}
		if rep.SeedPoolSize == 0 {
			t.Fatalf("window [%d, %d) started with an empty seed pool", w.Lo, w.Hi)
		}
		return rep, readKeys(t, dir)
	}

	repWhole, wholeKeys := mk(Window{Lo: 0, Hi: n})
	if repWhole.MutantJobs == 0 {
		t.Fatal("mutation-enabled campaign analyzed no mutants; the schedule is not firing")
	}

	var winAnalyzed, winMutants int
	var winCounts [difftest.NumVerdicts]int
	union := map[string]bool{}
	for _, w := range []Window{{0, 30}, {30, 60}, {60, n}} {
		rep, keys := mk(w)
		winAnalyzed += rep.Analyzed
		winMutants += rep.MutantJobs
		for v, c := range rep.Counts {
			winCounts[v] += c
		}
		for k := range keys {
			union[k] = true
		}
	}

	if winAnalyzed != repWhole.Analyzed || winAnalyzed != n {
		t.Errorf("windows analyzed %d programs, the whole span %d, want %d", winAnalyzed, repWhole.Analyzed, n)
	}
	if winMutants != repWhole.MutantJobs {
		t.Errorf("windows mutated %d jobs, the whole span %d — seed scheduling is not index-deterministic", winMutants, repWhole.MutantJobs)
	}
	if winCounts != repWhole.Counts {
		t.Errorf("window verdict counts %v != whole-span %v", winCounts, repWhole.Counts)
	}
	if len(union) != len(wholeKeys) {
		t.Errorf("window corpus union has %d findings, the whole span %d", len(union), len(wholeKeys))
	}
	for k := range wholeKeys {
		if !union[k] {
			t.Errorf("finding %s missing from the window union", k)
		}
	}
}

// TestCampaignMutationShardUnion extends the window-union determinism
// property to seed scheduling: with every window run holding the same
// corpus snapshot, the mutate-or-generate coin, the weighted seed draw,
// and the mutation itself all run off the global index's rng — so the
// union of mutation-enabled windows still equals one run over their span,
// verdict counts, mutant counts, findings, and all.
func TestCampaignMutationShardUnion(t *testing.T) {
	seedDir := t.TempDir()
	seedCorpus(t, seedDir, Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Minimize: true},
		CorpusDir: seedDir,
	})
	checkMutationWindowUnion(t, seedDir)
}

// TestCampaignMutationShardUnionWithNovelty re-proves the window-union
// property with novelty feedback in play: the seed corpus now carries
// real novelty records (from a prior mutation run), the pool weights are
// therefore class × recency × novelty, and the union of windows must
// still equal the whole-span run exactly — scheduling depends only on the
// shared (findings, novelty) snapshot, never on which window asks.
func TestCampaignMutationShardUnionWithNovelty(t *testing.T) {
	seedDir := t.TempDir()
	seedCorpus(t, seedDir, Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Minimize: true},
		CorpusDir: seedDir,
	})
	// A mutation run over the seeded corpus leaves novelty records behind.
	prior, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 100},
		Spec:      Spec{Seed: 23, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
		CorpusDir: seedDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prior.MutantJobs == 0 {
		t.Fatal("prior run mutated nothing; the test needs novelty data")
	}
	if stats, err := LoadNovelty(seedDir); err != nil || len(stats) == 0 {
		t.Fatalf("no novelty records after a mutation run (err=%v)", err)
	}
	checkMutationWindowUnion(t, seedDir)
}

// TestCampaignChainMutationReachesNewClasses is the acceptance demo: a
// mutation campaign over a seeded corpus on a chain-4 lattice produces
// deduplicated findings that pure two-point gen.Random sampling cannot
// reach — their programs annotate fields at the intermediate labels L1/L2,
// which the two-point emitter has no way to spell. It also pins that the
// corpus-as-seed-pool loop contributes: at least one finding is a mutant.
func TestCampaignChainMutationReachesNewClasses(t *testing.T) {
	dir := t.TempDir()
	// Seed pool: a plain two-point campaign, as PR-2 nightlies left behind.
	seedCorpus(t, dir, Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Minimize: true},
		CorpusDir: dir,
	})

	chainGen := smallGen()
	chainGen.Lattice = "chain:4"
	rep, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 200},
		Spec:      Spec{Seed: 5, Gen: chainGen, Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
		Workers:   2,
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatalf("chain-4 mutation campaign: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("chain-4 campaign found implementation defects:\n%s", FormatReport(rep))
	}
	if rep.MutantJobs == 0 {
		t.Fatal("no mutant jobs ran")
	}

	tall, mutants := 0, 0
	for _, f := range rep.Findings {
		if strings.Contains(f.Source, ", L1>") || strings.Contains(f.Source, ", L2>") {
			tall++
		}
		if f.Origin == "mutate" {
			mutants++
			if f.ParentKey == "" {
				t.Errorf("mutant finding %s lacks a parent key", f.Key)
			}
		}
	}
	if tall == 0 {
		t.Fatalf("no finding uses an intermediate chain label; nothing here is out of two-point reach:\n%s", FormatReport(rep))
	}
	if mutants == 0 {
		t.Fatal("no finding originated from a corpus mutant; the seed pool contributed nothing")
	}

	// The new findings replay like any others: the corpus stays a valid
	// regression suite across lattices.
	rr, err := Replay(context.Background(), ReplayConfig{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.OK() {
		t.Fatalf("mixed two-point + chain-4 corpus does not replay clean:\n%s", FormatReplayReport(rr))
	}
}

// TestCampaignChainNoveltyCoversStaticPriorClasses is the novelty
// acceptance lock: under identical seeds and configuration, a chain-4
// mutation campaign whose seed pool carries real novelty records must
// discover at least the finding classes the static class × recency prior
// discovers. (A corpus *without* novelty records schedules identically
// to the static prior by construction — TestSeedPoolStaticPriorWithoutNovelty
// — so the static baseline here is simply the same campaign over the
// snapshot minus its novelty files.)
func TestCampaignChainNoveltyCoversStaticPriorClasses(t *testing.T) {
	seedDir := t.TempDir()
	seedCorpus(t, seedDir, Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Minimize: true},
		CorpusDir: seedDir,
	})
	// Generate novelty records with a two-point mutation run, then reset
	// the findings to the original snapshot so both campaigns below start
	// from the same pool membership — only the weights differ.
	noveltyDir := t.TempDir()
	copyFindings(t, seedDir, noveltyDir)
	if _, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 100},
		Spec:      Spec{Seed: 23, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
		CorpusDir: noveltyDir,
	}); err != nil {
		t.Fatal(err)
	}

	chainGen := smallGen()
	chainGen.Lattice = "chain:4"
	campaignOver := func(dir string) map[Class]bool {
		rep, err := Run(context.Background(), Config{
			Window:    Window{Lo: 0, Hi: 200},
			Spec:      Spec{Seed: 5, Gen: chainGen, Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
			Workers:   2,
			CorpusDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("chain-4 campaign found implementation defects:\n%s", FormatReport(rep))
		}
		if rep.MutantJobs == 0 {
			t.Fatal("no mutant jobs ran")
		}
		classes := map[Class]bool{}
		for _, f := range rep.Findings {
			classes[f.Class] = true
		}
		return classes
	}

	// Static prior: the original findings snapshot, no novelty data.
	staticDir := t.TempDir()
	copyFindings(t, seedDir, staticDir)
	staticClasses := campaignOver(staticDir)

	// Novelty weighting: same findings snapshot plus the recorded novelty.
	weightedDir := t.TempDir()
	copyFindings(t, seedDir, weightedDir)
	copyNoveltyState(t, noveltyDir, weightedDir)
	if stats, err := LoadNovelty(weightedDir); err != nil || len(stats) == 0 {
		t.Fatalf("novelty snapshot missing (err=%v)", err)
	}
	noveltyClasses := campaignOver(weightedDir)

	if len(staticClasses) == 0 {
		t.Fatal("static-prior campaign found nothing; the comparison is vacuous")
	}
	for c := range staticClasses {
		if !noveltyClasses[c] {
			t.Errorf("novelty-weighted campaign missed class %s that the static prior found (static %v, novelty %v)",
				c, staticClasses, noveltyClasses)
		}
	}
}
