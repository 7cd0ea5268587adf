package campaign

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/events"
	"repro/internal/pipeline"
)

// TestCompactAfterMinimizeIsNoOp: the campaign's shrink predicate is the
// compact predicate, so compacting a corpus a minimizing campaign just
// wrote rewrites, collapses and skips nothing — under the default
// two-point adaptive oracle, a chain:4 lattice, and the exhaustive oracle.
func TestCompactAfterMinimizeIsNoOp(t *testing.T) {
	chain := smallGen()
	chain.Lattice = "chain:4"
	oneField := smallGen()
	oneField.NumFields = 1
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"adaptive", Spec{Seed: 1, Gen: smallGen(), Minimize: true}},
		{"chain4", Spec{Seed: 7, Gen: chain, Minimize: true}},
		{"exhaustive", Spec{Seed: 11, Gen: oneField, Minimize: true,
			Budget: pipeline.Budget{Oracle: pipeline.OracleExhaustive, ExhaustBudget: 1 << 10}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := Run(context.Background(), Config{
				Window:  Window{Lo: 0, Hi: 120},
				Spec:    tc.spec,
				Workers: 2,
				Corpus:  openCorpus(t, dir),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.NewFindings == 0 {
				t.Fatal("the campaign persisted nothing; the test needs findings to compact")
			}
			cr, err := Compact(context.Background(), CompactConfig{Corpus: openCorpus(t, dir)})
			if err != nil {
				t.Fatal(err)
			}
			if !cr.OK() || cr.Total != rep.NewFindings || cr.Minimized+cr.Collapsed+cr.Skipped != 0 {
				t.Errorf("compact after a minimizing campaign of %d findings: %+v", rep.NewFindings, cr)
			}
		})
	}
}

// TestCompactJobDoneCarriesOutcome: compacting a corpus a campaign wrote
// without minimization emits one job-done event per entry once its
// outcome is known, and the Detail of each rewritten or collapsed entry's
// event says so — the only record of the per-entry outcome besides the
// corpus itself.
func TestCompactJobDoneCarriesOutcome(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(context.Background(), Config{
		Window:  Window{Lo: 0, Hi: 60},
		Spec:    Spec{Seed: 3, Gen: smallGen(), MaxPerClass: 6},
		Workers: 2,
		Corpus:  openCorpus(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []events.Event
	cr, err := Compact(context.Background(), CompactConfig{
		Corpus: openCorpus(t, dir),
		Events: func(ev events.Event) {
			if ev.Kind == events.KindJobDone {
				jobs = append(jobs, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.OK() || cr.Minimized == 0 {
		t.Fatalf("compact of %d unminimized findings rewrote nothing: %+v", rep.NewFindings, cr)
	}
	if len(jobs) != cr.Total {
		t.Errorf("%d job-done events for %d entries", len(jobs), cr.Total)
	}
	minimized, collapsed := 0, 0
	for _, ev := range jobs {
		switch {
		case strings.HasPrefix(ev.Detail, "minimized to "):
			minimized++
			path, _, _ := strings.Cut(strings.TrimPrefix(ev.Detail, "minimized to "), " ")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: rewritten entry %s: %v", ev.Path, path, err)
			}
		case strings.HasPrefix(ev.Detail, "collapsed onto "):
			collapsed++
		case ev.Detail != "":
			t.Errorf("%s: unexpected detail %q", ev.Path, ev.Detail)
		}
	}
	if minimized != cr.Minimized || collapsed != cr.Collapsed {
		t.Errorf("details say %d minimized, %d collapsed; report says %d, %d", minimized, collapsed, cr.Minimized, cr.Collapsed)
	}
}

// TestJudgeKeepsNothingOnceCancelled: once the context is done, the
// shrink predicate keeps no candidate — not even the finding itself —
// and the judge analyses nothing.
func TestJudgeKeepsNothingOnceCancelled(t *testing.T) {
	c, err := corpus.Open("../../testdata/regression-corpus")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	for e := range c.Select(corpus.Filter{}) {
		src, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		j, err := judgeOf(e.Meta)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, _, err := j.classify(context.Background(), src); err != nil || got != string(e.Meta.Class) {
			t.Fatalf("%s: live judge gives %q, %v; want %s", e.Path, got, err, e.Meta.Class)
		}
		if j.keep(ctx, new(judged))(src) {
			t.Errorf("%s: kept after cancel", e.Path)
		}
		if _, _, _, err := j.classify(ctx, src); err != context.Canceled {
			t.Errorf("%s: judge after cancel returns %v, want context.Canceled", e.Path, err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("the regression corpus is empty")
	}
}
