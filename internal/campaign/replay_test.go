package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// soundSrc is a trivially sound two-point program, used to inject verdict
// drift into a persisted finding.
const soundSrc = `header data_t {
    <bit<8>, low> lo0;
}
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        hdr.d.lo0 = 8w1;
    }
}
`

// TestReplayReproducesAndFlagsDrift is the replay regression demo: a
// small campaign persists findings into a temp corpus; Replay then
// reproduces every persisted verdict class cleanly; and after a finding's
// program is tampered with, Replay flags exactly that finding as drifted.
func TestReplayReproducesAndFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(context.Background(), Config{
		Window:  Window{Lo: 0, Hi: 80},
		Spec:    Spec{Seed: 42, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 8}, Minimize: true},
		Workers: 2,
		Corpus:  openCorpus(t, dir),
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("campaign persisted no findings; the replay demo needs some")
	}

	// Clean replay: every persisted class reproduces. The finding's
	// recorded NI budget rides along in its metadata, so the replay
	// defaults here are irrelevant.
	rr, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rr.OK() {
		t.Fatalf("fresh corpus does not replay clean:\n%s", FormatReplayReport(rr))
	}
	if rr.Total != rep.NewFindings {
		t.Errorf("replayed %d findings, campaign persisted %d", rr.Total, rep.NewFindings)
	}
	classes := 0
	for _, f := range rep.Findings {
		if rr.ByClass[f.Class] == 0 {
			t.Errorf("persisted class %s missing from the replay's class table", f.Class)
		}
	}
	for range rr.ByClass {
		classes++
	}
	if classes == 0 {
		t.Error("replay saw no classes at all")
	}

	// Injected drift: overwrite one non-parser finding's program with a
	// sound one. Replay must flag that path — and only that path.
	var victim string
	for _, f := range rep.Findings {
		if f.Class != ClassParserDisagreement && f.Path != "" {
			victim = f.Path
			break
		}
	}
	if victim == "" {
		t.Fatal("no persisted verdict-class finding to tamper with")
	}
	if err := os.WriteFile(victim, []byte(soundSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	rr2, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatalf("replay after tamper: %v", err)
	}
	if rr2.OK() {
		t.Fatal("replay did not flag the injected drift")
	}
	if len(rr2.Drifts) != 1 || rr2.Drifts[0].Path != victim {
		t.Fatalf("replay flagged %v, want exactly the tampered %s", rr2.Drifts, victim)
	}
	if rr2.Drifts[0].Got != "sound" {
		t.Errorf("tampered finding replays as %q, want sound", rr2.Drifts[0].Got)
	}
}

// TestReplayEmptyAndMissingCorpus: nothing persisted means nothing to
// regress against — the gate passes instead of failing the first nightly
// run.
func TestReplayEmptyAndMissingCorpus(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "never-created")} {
		rr, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
		if err != nil {
			t.Fatalf("replay of %s: %v", dir, err)
		}
		if !rr.OK() || rr.Total != 0 {
			t.Errorf("empty corpus %s replays as %d findings, ok=%v", dir, rr.Total, rr.OK())
		}
	}
}

// TestReplayFlagsUnreplayablePairs: a metadata file whose program is gone
// is an error entry, not a silent skip.
func TestReplayFlagsUnreplayablePairs(t *testing.T) {
	dir := t.TempDir()
	findings := filepath.Join(dir, "findings")
	if err := os.MkdirAll(findings, 0o755); err != nil {
		t.Fatal(err)
	}
	meta := `{"class":"rejected-clean","key":"deadbeef","detail":"","index":0,"gen_seed":0,"ni_seed":0,"gen":{},"shard":0,"num_shards":1,"original_bytes":1,"bytes":1,"minimized":false,"found_at":"2026-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(findings, "rejected-clean-deadbeef.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK() || len(rr.Errors) != 1 {
		t.Fatalf("orphan metadata not flagged: ok=%v errors=%v", rr.OK(), rr.Errors)
	}
	if !strings.Contains(FormatReplayReport(rr), "FAIL") {
		t.Error("report for an unreplayable corpus does not say FAIL")
	}
}

// TestReplayCheckedInRegressionSeeds replays the regression corpus that
// ci.yml gates PRs on, so a checker change that drifts those seeds fails
// go test before it even reaches the workflow.
func TestReplayCheckedInRegressionSeeds(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "regression-corpus")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no checked-in regression corpus: %v", err)
	}
	rr, err := Replay(context.Background(), ReplayConfig{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Total == 0 {
		t.Fatal("checked-in regression corpus is empty")
	}
	if !rr.OK() {
		t.Fatalf("checked-in regression seeds drifted:\n%s", FormatReplayReport(rr))
	}
}
