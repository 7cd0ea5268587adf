package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/pipeline"
)

// smallGen keeps test campaigns fast: smaller programs shrink quicker.
func smallGen() gen.Config {
	return gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}
}

// readKeys collects the dedup keys of every finding persisted under dir.
func readKeys(t *testing.T, dir string) map[string]corpus.Meta {
	t.Helper()
	keys := map[string]corpus.Meta{}
	entries, err := os.ReadDir(filepath.Join(dir, "findings"))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") || e.Name() == "index.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, "findings", e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		var m corpus.Meta
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode %s: %v", e.Name(), err)
		}
		keys[m.Key] = m
	}
	return keys
}

// classifySource reruns the full stage stack on one source and returns its
// difftest verdict, for validating that persisted findings reproduce.
func classifySource(t *testing.T, src string, niSeed int64, trials, max int) difftest.Verdict {
	t.Helper()
	sum, err := pipeline.Run(context.Background(),
		[]pipeline.Job{{Name: "replay.p4", Source: src, Lat: lattice.TwoPoint()}},
		pipeline.Options{Workers: 1, NI: pipeline.NIAll, NITrials: trials, NITrialsMax: max, NISeed: niSeed})
	if err != nil || len(sum.Results) != 1 {
		t.Fatalf("replay failed: %v", err)
	}
	v, _ := difftest.Classify(&sum.Results[0])
	return v
}

// TestCampaignTwoRunDemo is the end-to-end acceptance demo: run 1 persists
// deduplicated, minimized findings with verdict metadata; a re-run over
// the same window skips every known finding; the next window continues
// into fresh indices over the same corpus.
func TestCampaignTwoRunDemo(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		Window:      Window{Lo: 0, Hi: 60},
		Seed:        42,
		Gen:         smallGen(),
		NITrials:    2,
		NITrialsMax: 8,
		Workers:     2,
		CorpusDir:   dir,
		Minimize:    true,
	}

	// Run 1: fresh corpus.
	rep1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if !rep1.OK() {
		t.Fatalf("run 1 found implementation defects:\n%s", FormatReport(rep1))
	}
	if rep1.NewFindings == 0 {
		t.Fatal("run 1 persisted no findings; the demo needs at least one")
	}
	if rep1.Window != base.Window || rep1.Analyzed != 60 {
		t.Fatalf("run 1 covered %+v (%d analyzed), want [0, 60)", rep1.Window, rep1.Analyzed)
	}

	keys := readKeys(t, dir)
	if len(keys) != rep1.NewFindings {
		t.Errorf("corpus holds %d findings, report says %d new", len(keys), rep1.NewFindings)
	}
	// Metadata must be complete enough to replay and to audit.
	for k, m := range keys {
		if m.Key != k || m.Class == "" || m.Gen != base.Gen || m.GenSeed != 42+m.Index {
			t.Errorf("incomplete metadata for %s: %+v", k, m)
		}
		if m.Bytes > m.OriginalBytes {
			t.Errorf("finding %s grew: %d from %d bytes", k, m.Bytes, m.OriginalBytes)
		}
	}

	// Minimization must have produced at least one strictly smaller
	// program that still reproduces its verdict class.
	verifiedMin := false
	for _, f := range rep1.Findings {
		if !f.Minimized || f.Class == ClassParserDisagreement {
			continue
		}
		if len(f.Source) >= f.OriginalBytes {
			t.Fatalf("finding %s marked minimized but not smaller", f.Key)
		}
		if got := classifySource(t, f.Source, f.NISeed, 2, 8); got != f.Verdict {
			t.Errorf("minimized finding %s classifies as %v, want %v:\n%s", f.Key, got, f.Verdict, f.Source)
		}
		verifiedMin = true
		break
	}
	if !verifiedMin {
		t.Error("no finding was minimized; generated findings should carry dead weight")
	}

	// Run 2a: the same window again — every finding is already in the
	// corpus, so nothing new lands.
	rep2a, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("run 2a: %v", err)
	}
	if rep2a.NewFindings != 0 {
		t.Errorf("re-covering the same window persisted %d new findings, want 0", rep2a.NewFindings)
	}
	if rep2a.KnownFindings == 0 {
		t.Error("re-covering the same window skipped no known findings")
	}
	if got := len(readKeys(t, dir)); got != len(keys) {
		t.Errorf("corpus grew from %d to %d findings on a repeat window", len(keys), got)
	}

	// Run 2b: the next window — fresh indices over the same corpus.
	next := base
	next.Window = Window{Lo: 60, Hi: 120}
	rep2b, err := Run(context.Background(), next)
	if err != nil {
		t.Fatalf("run 2b: %v", err)
	}
	if rep2b.Window != next.Window || rep2b.Analyzed != 60 {
		t.Fatalf("run 2b covered %+v (%d analyzed), want [60, 120)", rep2b.Window, rep2b.Analyzed)
	}
	for _, f := range rep2b.Findings {
		if f.Index < 60 || f.Index >= 120 {
			t.Errorf("run 2b finding at index %d, outside its window", f.Index)
		}
	}
}

// TestCampaignWindowUnion: covering [0, n) as a set of smaller windows
// finds the same dedup-key set and verdict counts as one run over [0, n)
// — the partition-exactness the fleet coordinator builds on.
func TestCampaignWindowUnion(t *testing.T) {
	const n = 90
	base := Config{
		Seed:        7,
		Gen:         smallGen(),
		NITrials:    2,
		NITrialsMax: 4,
		Workers:     2,
		MaxPerClass: -1,
	}

	whole := t.TempDir()
	wcfg := base
	wcfg.Window = Window{Lo: 0, Hi: n}
	wcfg.CorpusDir = whole
	repWhole, err := Run(context.Background(), wcfg)
	if err != nil {
		t.Fatal(err)
	}

	var winAnalyzed int
	var winCounts [difftest.NumVerdicts]int
	union := map[string]bool{}
	dir := t.TempDir()
	for _, w := range []Window{{0, 30}, {30, 35}, {35, 90}} {
		cfg := base
		cfg.Window = w
		cfg.CorpusDir = dir
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("window [%d, %d): %v", w.Lo, w.Hi, err)
		}
		if rep.Window != w {
			t.Errorf("window [%d, %d) reported %+v", w.Lo, w.Hi, rep.Window)
		}
		winAnalyzed += rep.Analyzed
		for v, c := range rep.Counts {
			winCounts[v] += c
		}
	}
	for k := range readKeys(t, dir) {
		union[k] = true
	}

	if winAnalyzed != repWhole.Analyzed || winAnalyzed != n {
		t.Errorf("windows analyzed %d programs, the whole span %d, want %d", winAnalyzed, repWhole.Analyzed, n)
	}
	if winCounts != repWhole.Counts {
		t.Errorf("window verdict counts %v != whole-span %v", winCounts, repWhole.Counts)
	}
	wholeKeys := readKeys(t, whole)
	if len(union) != len(wholeKeys) {
		t.Errorf("window corpus union has %d findings, the whole span %d", len(union), len(wholeKeys))
	}
	for k := range wholeKeys {
		if !union[k] {
			t.Errorf("finding %s missing from the window union", k)
		}
	}
}

// TestCampaignWindowValidation: the window is required and must be
// non-empty and non-negative.
func TestCampaignWindowValidation(t *testing.T) {
	base := Config{Gen: smallGen(), NITrials: 1}
	for name, cfg := range map[string]Config{
		"missing":  {},
		"empty":    {Window: Window{Lo: 5, Hi: 5}},
		"inverted": {Window: Window{Lo: 9, Hi: 3}},
		"negative": {Window: Window{Lo: -1, Hi: 3}},
	} {
		cfg.Gen = base.Gen
		cfg.NITrials = base.NITrials
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: invalid window config accepted", name)
		}
	}
}

// TestCampaignCancellation: mid-run cancellation returns the context error
// and a report marked Aborted that covers only part of the window.
func TestCampaignCancellation(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, Config{
		Window:    Window{Lo: 0, Hi: 5000},
		Seed:      3,
		Gen:       smallGen(),
		NITrials:  2,
		CorpusDir: dir,
	})
	if err == nil || !rep.Aborted {
		t.Fatalf("cancelled campaign returned err=%v aborted=%v", err, rep.Aborted)
	}
	if rep.Analyzed >= 5000 {
		t.Errorf("aborted run analyzed the whole window (%d programs)", rep.Analyzed)
	}
	if !strings.Contains(FormatReport(rep), "ABORTED") {
		t.Errorf("aborted report does not say ABORTED:\n%s", FormatReport(rep))
	}
}

// TestCampaignNoCorpusDir: without a corpus dir the campaign still runs,
// dedups within the run, and keeps findings in memory.
func TestCampaignNoCorpusDir(t *testing.T) {
	rep, err := Run(context.Background(), Config{Window: Window{Lo: 0, Hi: 40}, Seed: 9, Gen: smallGen(), NITrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed != 40 {
		t.Errorf("analyzed %d, want 40", rep.Analyzed)
	}
	for _, f := range rep.Findings {
		if f.Path != "" {
			t.Errorf("finding %s claims a path without a corpus dir", f.Key)
		}
	}
	if rep.KnownFindings != 0 {
		t.Errorf("known findings %d without a corpus", rep.KnownFindings)
	}
}

// TestCampaignDeterministicFindings: with two workers finishing jobs in
// whatever order the scheduler picks and a per-class cap that binds, two
// runs over the same window process the same findings in the same order —
// the same Findings key sequence, minimization totals, and corpus files.
func TestCampaignDeterministicFindings(t *testing.T) {
	run := func() (*Report, string) {
		dir := t.TempDir()
		rep, err := Run(context.Background(), Config{
			Window:      Window{Lo: 0, Hi: 200},
			Seed:        17,
			Gen:         smallGen(),
			NITrials:    2,
			NITrialsMax: 64,
			Workers:     2,
			CorpusDir:   dir,
			Minimize:    true,
			MaxPerClass: 15,
		})
		if err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(dir, "findings"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return rep, strings.Join(names, ",")
	}
	keysOf := func(r *Report) string {
		var keys []string
		for _, f := range r.Findings {
			keys = append(keys, f.Key)
		}
		return strings.Join(keys, ",")
	}
	a, lsA := run()
	b, lsB := run()
	if a.CappedFindings == 0 {
		t.Fatal("the per-class cap never bound; the test premise is broken")
	}
	if keysOf(a) != keysOf(b) {
		t.Errorf("finding key sequences differ:\n%s\n%s", keysOf(a), keysOf(b))
	}
	if a.NewFindings != b.NewFindings || a.Minimized != b.Minimized || a.BytesSaved != b.BytesSaved {
		t.Errorf("new/minimized/saved %d/%d/%d vs %d/%d/%d",
			a.NewFindings, a.Minimized, a.BytesSaved, b.NewFindings, b.Minimized, b.BytesSaved)
	}
	if lsA != lsB {
		t.Errorf("corpus contents differ:\n%s\n%s", lsA, lsB)
	}
	for i := 1; i < len(a.Findings); i++ {
		if a.Findings[i].Index < a.Findings[i-1].Index {
			t.Errorf("findings out of index order: %d after %d", a.Findings[i].Index, a.Findings[i-1].Index)
		}
	}
}
