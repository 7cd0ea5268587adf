package triage_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/triage"
)

// soundSrc trivially IFC-accepts: overwriting a finding's program with it
// simulates the finding's defect having been deliberately fixed.
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

// smallGen keeps test campaigns fast: smaller programs shrink quicker.
func smallGen() gen.Config {
	return gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}
}

// TestRetirePromotesFixedFindings is the corpus-hygiene demo end to end:
// a campaign persists findings; one finding's defect is "fixed" (its
// program replaced by a sound one); Retire promotes exactly that entry
// into the retired corpus — re-recorded under its current class, old
// class kept as provenance — and removes it from the live corpus, after
// which both corpora replay clean.
func TestRetirePromotesFixedFindings(t *testing.T) {
	dir := t.TempDir()
	promote := filepath.Join(t.TempDir(), "retired")
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Window:    campaign.Window{Lo: 0, Hi: 80},
		Spec:      campaign.Spec{Seed: 42, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 8}, Minimize: true},
		Workers:   2,
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.NewFindings < 2 {
		t.Fatalf("campaign persisted %d findings; the retire demo needs at least 2", rep.NewFindings)
	}

	// Nothing drifted yet: retire must be a no-op.
	rr, err := triage.Retire(context.Background(), triage.RetireConfig{CorpusDir: dir, PromoteDir: promote})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.OK() || len(rr.Retired) != 0 || rr.Kept != rep.NewFindings {
		t.Fatalf("clean corpus retire: ok=%v retired=%d kept=%d want kept=%d\n%s",
			rr.OK(), len(rr.Retired), rr.Kept, rep.NewFindings, triage.FormatRetireReport(rr))
	}

	// "Fix" one finding's defect.
	var victim campaign.Finding
	for _, f := range rep.Findings {
		if f.Class == campaign.ClassRejectedClean && f.Path != "" {
			victim = f
			break
		}
	}
	if victim.Path == "" {
		t.Fatal("no rejected-clean finding to fix")
	}
	if err := os.WriteFile(victim.Path, []byte(soundSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	rr2, err := triage.Retire(context.Background(), triage.RetireConfig{CorpusDir: dir, PromoteDir: promote})
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.OK() || len(rr2.Retired) != 1 {
		t.Fatalf("retire after fix: ok=%v retired=%d\n%s", rr2.OK(), len(rr2.Retired), triage.FormatRetireReport(rr2))
	}
	rf := rr2.Retired[0]
	if rf.Path != victim.Path || rf.From != campaign.ClassRejectedClean || rf.To != campaign.ClassSound {
		t.Fatalf("retired %s (%s -> %s), want %s (rejected-clean -> sound)", rf.Path, rf.From, rf.To, victim.Path)
	}
	// The live entry is gone, program and metadata both.
	if _, err := os.Stat(rf.Path); !os.IsNotExist(err) {
		t.Errorf("retired program still in live corpus: %v", err)
	}
	if _, err := os.Stat(strings.TrimSuffix(rf.Path, ".p4") + ".json"); !os.IsNotExist(err) {
		t.Errorf("retired metadata still in live corpus: %v", err)
	}
	// The promoted entry exists, re-recorded under its current class with
	// provenance intact.
	raw, err := os.ReadFile(strings.TrimSuffix(rf.PromotedPath, ".p4") + ".json")
	if err != nil {
		t.Fatalf("promoted metadata missing: %v", err)
	}
	for _, want := range []string{`"class": "sound"`, `"retired_from": "rejected-clean"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("promoted metadata lacks %s:\n%s", want, raw)
		}
	}

	// Both corpora replay clean: the retired entry guards the fix.
	for _, d := range []string{dir, promote} {
		rep, err := campaign.Replay(context.Background(), campaign.ReplayConfig{CorpusDir: d})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s does not replay clean after retire:\n%s", d, campaign.FormatReplayReport(rep))
		}
	}

	// Triage still works over the cleaned corpus, and the retire report's
	// survivor annotation agrees with the post-retire cluster table.
	after, err := triage.Triage(triage.Config{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK() || after.Total != rep.NewFindings-1 {
		t.Errorf("post-retire triage: ok=%v total=%d, want %d", after.OK(), after.Total, rep.NewFindings-1)
	}
	live := 0
	for _, cl := range after.Clusters {
		if cl.Class == rf.From && cl.Rule == rf.Rule && cl.Fingerprint == rf.Fingerprint {
			live = cl.Size
		}
	}
	if live != rf.ClusterSurvivors {
		t.Errorf("retire reports %d cluster survivors, triage counts %d", rf.ClusterSurvivors, live)
	}
	if rf.Rule == "" {
		t.Error("retired finding carries no cited rule (want the recorded one, or '-')")
	}
}

// TestRetireCountsClusterSurvivors: retiring one member of a shape-twin
// pair whose defect persists textually (the checker "fixed" it, the
// program unchanged) reports the twin as a live survivor under the full
// (class, rule, shape) cluster key.
func TestRetireCountsClusterSurvivors(t *testing.T) {
	dir := t.TempDir()
	// Two shape-equal rejected-clean twins: identical skeletons, renamed
	// identifiers. The leak is a dead store (the low field is
	// overwritten with a constant before anything observes it), so the
	// rejection is conservative by construction — no NI trial can ever
	// witness it, and the class is stable under any budget.
	twinA := `header data_t {
    <bit<8>, low> lo0;
    <bit<8>, high> hi0;
}
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        hdr.d.lo0 = hdr.d.hi0;
        hdr.d.lo0 = 8w0;
    }
}
`
	twinB := strings.NewReplacer("lo0", "dst0", "hi0", "key0").Replace(twinA)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "a",
		NITrials: 1, NITrialsMax: 2, NISeed: 5,
	}, twinA)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "b",
		NITrials: 1, NITrialsMax: 2, NISeed: 6,
	}, twinB)
	// The fixture must replay clean before tampering with it.
	rr0, err := campaign.Replay(context.Background(), campaign.ReplayConfig{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rr0.OK() {
		t.Fatalf("dead-store fixture does not replay rejected-clean:\n%s", campaign.FormatReplayReport(rr0))
	}
	// "Fix" twin A only.
	fpBefore, err := corpus.FingerprintSource("a.p4", twinA)
	if err != nil {
		t.Fatal(err)
	}
	stemA := "rejected-clean-" + corpus.DedupKey(campaign.ClassRejectedClean, twinA)[:12]
	if err := os.WriteFile(filepath.Join(dir, "findings", stemA+".p4"), []byte(soundSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	rr, err := triage.Retire(context.Background(), triage.RetireConfig{
		CorpusDir:  dir,
		PromoteDir: filepath.Join(t.TempDir(), "retired"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.OK() || len(rr.Retired) != 1 {
		t.Fatalf("retire: ok=%v retired=%d\n%s", rr.OK(), len(rr.Retired), triage.FormatRetireReport(rr))
	}
	rf := rr.Retired[0]
	if rf.Rule != "T-Assign" {
		t.Errorf("retired rule %q, want the recorded T-Assign", rf.Rule)
	}
	// The fixed program's shape differs from the twins', so its survivor
	// count is keyed off its own current shape — which has no live
	// members. The *twin's* cluster, however, must still be live in the
	// post-retire triage under the recorded rule.
	after, err := triage.Triage(triage.Config{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	foundTwin := false
	for _, cl := range after.Clusters {
		if cl.Fingerprint == fpBefore && cl.Rule == "T-Assign" && cl.Size == 1 {
			foundTwin = true
		}
	}
	if !foundTwin {
		t.Errorf("surviving twin's (rejected-clean, T-Assign, %s) cluster missing after retire:\n%s",
			fpBefore, triage.FormatReport(after))
	}
}

// TestRetireLeavesUnparseableAlone: an entry whose program no longer
// parses cannot be re-recorded as a regression test — it is reported,
// not silently dropped.
func TestRetireLeavesUnparseableAlone(t *testing.T) {
	dir := t.TempDir()
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Window:    campaign.Window{Lo: 0, Hi: 60},
		Spec:      campaign.Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}},
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("campaign persisted nothing")
	}
	victim := rep.Findings[0].Path
	if err := os.WriteFile(victim, []byte("garbage {{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	rr, err := triage.Retire(context.Background(), triage.RetireConfig{
		CorpusDir:  dir,
		PromoteDir: filepath.Join(t.TempDir(), "retired"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK() || len(rr.Retired) != 0 {
		t.Fatalf("unparseable entry handled as a retire: ok=%v retired=%d", rr.OK(), len(rr.Retired))
	}
	found := false
	for _, e := range rr.Errors {
		if strings.Contains(e, victim) {
			found = true
		}
	}
	if !found {
		t.Fatalf("errors %v do not name the unparseable entry %s", rr.Errors, victim)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("unparseable entry was removed from the live corpus: %v", err)
	}
}

// TestRetireAccountingSingleCountsUnparseableDrift: an entry that is both
// drift-flagged and unparseable is one problem, not two — it gets exactly
// one dedicated error, and the report's accounting holds together:
// Total = Kept + Retired + Errors. (It used to surface twice, once as
// drift and once as a fingerprint-parse failure, inflating the error
// count past the entry count.)
func TestRetireAccountingSingleCountsUnparseableDrift(t *testing.T) {
	dir := t.TempDir()
	// Two dead-store rejected-clean findings: conservative rejections that
	// replay stably under any budget.
	stable := `header data_t {
    <bit<8>, low> lo0;
    <bit<8>, high> hi0;
}
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        hdr.d.lo0 = hdr.d.hi0;
        hdr.d.lo0 = 8w0;
    }
}
`
	other := strings.NewReplacer("lo0", "dst0", "hi0", "key0").Replace(stable)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "a",
		NITrials: 1, NITrialsMax: 2, NISeed: 5,
	}, stable)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "b",
		NITrials: 1, NITrialsMax: 2, NISeed: 6,
	}, other)
	// Corrupt one program so replay drifts it to "unparseable".
	victim := filepath.Join(dir, "findings",
		"rejected-clean-"+corpus.DedupKey(campaign.ClassRejectedClean, other)[:12]+".p4")
	if err := os.WriteFile(victim, []byte("garbage {{{"), 0o644); err != nil {
		t.Fatal(err)
	}

	rr, err := triage.Retire(context.Background(), triage.RetireConfig{
		CorpusDir:  dir,
		PromoteDir: filepath.Join(t.TempDir(), "retired"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Errors) != 1 {
		t.Fatalf("drifted+unparseable entry produced %d errors, want exactly 1: %v", len(rr.Errors), rr.Errors)
	}
	if !strings.Contains(rr.Errors[0], victim) || !strings.Contains(rr.Errors[0], "unparseable") {
		t.Errorf("the one error should name the entry and the cause: %q", rr.Errors[0])
	}
	if got := rr.Kept + len(rr.Retired) + len(rr.Errors); rr.Total != 2 || got != rr.Total {
		t.Errorf("accounting broken: total=%d kept=%d retired=%d errors=%d",
			rr.Total, rr.Kept, len(rr.Retired), len(rr.Errors))
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("errored entry left the live corpus: %v", err)
	}
}
