package triage_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/triage"
)

var update = flag.Bool("update", false, "rewrite the golden cluster table from the current triage output")

// openCorpus opens the corpus under dir.
func openCorpus(t *testing.T, dir string) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// writeFinding drops one synthetic finding pair into dir's corpus.
func writeFinding(t *testing.T, dir string, m corpus.Meta, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
		t.Fatal(err)
	}
	if m.Key == "" {
		m.Key = corpus.DedupKey(m.Class, src)
	}
	stem := fmt.Sprintf("%s-%s", m.Class, m.Key[:12])
	if err := corpus.WriteMeta(filepath.Join(dir, "findings", stem+".json"), m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "findings", stem+".p4"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTriageClustersByClassRuleShape: findings that differ only in
// identifier spellings and literals land in one cluster, with the origin
// mix, time bracket, NI budgets, and smallest-member exemplar aggregated;
// a finding with a different shape gets its own cluster.
func TestTriageClustersByClassRuleShape(t *testing.T) {
	dir := t.TempDir()
	progA := `header data_t {
    <bit<8>, low> lo0;
    <bit<8>, high> hi0;
}
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        hdr.d.lo0 = hdr.d.hi0;
    }
}
`
	// Same shape, renamed identifiers (longer, so progA stays exemplar).
	progB := strings.NewReplacer("lo0", "looong0", "hi0", "hiiigh0").Replace(progA)
	// Different shape: the flow hides under a conditional.
	progC := strings.Replace(progA, "        hdr.d.lo0 = hdr.d.hi0;\n",
		"        if (hdr.d.lo0 == 8w1) {\n            hdr.d.lo0 = hdr.d.hi0;\n        }\n", 1)

	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(24 * time.Hour)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "a",
		Origin: "gen", NITrialsMax: 8, FoundAt: t0,
	}, progA)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "b",
		Origin: "mutate", ParentKey: "1234", NITrialsMax: 32, FoundAt: t1,
	}, progB)
	writeFinding(t, dir, corpus.Meta{
		Class: campaign.ClassRejectedClean, Rule: "T-Assign", Detail: "c",
		Origin: "gen", NITrialsMax: 8, FoundAt: t1,
	}, progC)

	rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Total != 3 {
		t.Fatalf("triage: ok=%v total=%d errors=%v", rep.OK(), rep.Total, rep.Errors)
	}
	if len(rep.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2:\n%s", len(rep.Clusters), triage.FormatReport(rep))
	}
	big := rep.Clusters[0]
	if big.Size != 2 || rep.Clusters[1].Size != 1 {
		t.Fatalf("cluster sizes %d/%d, want 2/1", big.Size, rep.Clusters[1].Size)
	}
	if big.Class != campaign.ClassRejectedClean || big.Rule != "T-Assign" {
		t.Errorf("big cluster is %s/%s, want rejected-clean/T-Assign", big.Class, big.Rule)
	}
	if big.Exemplar != progA {
		t.Errorf("exemplar is not the smallest member:\n%s", big.Exemplar)
	}
	if big.GenOrigin != 1 || big.MutantOrigin != 1 {
		t.Errorf("origin mix %dg/%dm, want 1g/1m", big.GenOrigin, big.MutantOrigin)
	}
	if !big.FirstSeen.Equal(t0) || !big.LastSeen.Equal(t1) {
		t.Errorf("time bracket [%v, %v], want [%v, %v]", big.FirstSeen, big.LastSeen, t0, t1)
	}
	if big.NIBudgetMin != 8 || big.NIBudgetMax != 32 {
		t.Errorf("NI budget bracket %d..%d, want 8..32", big.NIBudgetMin, big.NIBudgetMax)
	}
	if rep.Clusters[1].Fingerprint == big.Fingerprint {
		t.Error("structurally different programs share a fingerprint")
	}
}

// TestTriageRuleFallback: corpora written before rule recording extract
// the cited rule from the detail text's trailing "[Rule]" marker.
func TestTriageRuleFallback(t *testing.T) {
	dir := t.TempDir()
	src := `header data_t { <bit<8>, low> f; }
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply { hdr.d.f = 8w1; }
}
`
	writeFinding(t, dir, corpus.Meta{
		Class:  campaign.ClassRejectedClean,
		Detail: "x.p4:3:1: error: explicit flow: high ⋢ low [T-Assign]",
	}, src)
	rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 1 || rep.Clusters[0].Rule != "T-Assign" {
		t.Fatalf("rule fallback failed:\n%s", triage.FormatReport(rep))
	}
}

// TestTriageFlagsMalformedCorpus: the PR gate's failure mode — orphan
// metadata, non-finding JSON, and unparseable programs each produce an
// error entry and flip OK to false.
func TestTriageFlagsMalformedCorpus(t *testing.T) {
	dir := t.TempDir()
	findings := filepath.Join(dir, "findings")
	if err := os.MkdirAll(findings, 0o755); err != nil {
		t.Fatal(err)
	}
	// Orphan metadata: no .p4 next to it.
	orphan := corpus.Meta{Class: campaign.ClassRejectedClean, Key: strings.Repeat("ab", 32)}
	if err := corpus.WriteMeta(filepath.Join(findings, "rejected-clean-orphan.json"), orphan); err != nil {
		t.Fatal(err)
	}
	rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Errors) != 1 {
		t.Fatalf("orphan pair not flagged: ok=%v errors=%v", rep.OK(), rep.Errors)
	}
	if !strings.Contains(triage.FormatReport(rep), "FAIL") {
		t.Error("report for a malformed corpus does not say FAIL")
	}

	// Unparseable program.
	dir2 := t.TempDir()
	writeFinding(t, dir2, corpus.Meta{Class: campaign.ClassRejectedClean, Detail: "d"}, "not a program {{{")
	rep2, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir2)})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK() || len(rep2.Errors) != 1 || !strings.Contains(rep2.Errors[0], "does not parse") {
		t.Fatalf("unparseable program not flagged: ok=%v errors=%v", rep2.OK(), rep2.Errors)
	}
}

// TestTriageEmptyAndMissingCorpus: nothing to triage is a clean, empty
// report — the first nightly run has no corpus yet.
func TestTriageEmptyAndMissingCorpus(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "never-created")} {
		rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || rep.Total != 0 || len(rep.Clusters) != 0 {
			t.Errorf("empty corpus %s: total=%d clusters=%d ok=%v", dir, rep.Total, len(rep.Clusters), rep.OK())
		}
	}
}

// TestTriageJSONRoundtrips: the JSON artifact form decodes back to the
// same cluster table.
func TestTriageJSONRoundtrips(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "regression-corpus")
	rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := triage.MarshalJSONReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back triage.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total != rep.Total || len(back.Clusters) != len(rep.Clusters) {
		t.Fatalf("JSON roundtrip lost clusters: %d/%d vs %d/%d",
			back.Total, len(back.Clusters), rep.Total, len(rep.Clusters))
	}
}

// TestTriageRegressionCorpusGolden is the acceptance lock: triaging the
// checked-in 13-finding regression corpus yields at least two distinct
// clusters, and the (class, rule, fingerprint, size) table matches the
// golden file byte for byte — fingerprints are stable across sessions or
// the golden diff says exactly which shape moved. Regenerate with
//
//	go test ./internal/triage -run Golden -update
func TestTriageRegressionCorpusGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "regression-corpus")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no checked-in regression corpus: %v", err)
	}
	rep, err := triage.Triage(triage.Config{Corpus: openCorpus(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("checked-in corpus has malformed metadata:\n%s", triage.FormatReport(rep))
	}
	if len(rep.Clusters) < 2 {
		t.Fatalf("regression corpus triages into %d clusters, want >= 2", len(rep.Clusters))
	}
	var b strings.Builder
	for _, cl := range rep.Clusters {
		fmt.Fprintf(&b, "%s %s %s %d\n", cl.Class, cl.Rule, cl.Fingerprint, cl.Size)
	}
	got := b.String()

	golden := filepath.Join("testdata", "regression-clusters.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden cluster table (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("cluster table drifted from golden (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
