package triage

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/metrics"
)

// mkReport builds a minimal ranked report from (class, rule, fp, size)
// rows.
func mkReport(dir string, rows ...[4]string) *Report {
	r := &Report{CorpusDir: dir}
	for _, row := range rows {
		size := int(row[3][0] - '0')
		r.Clusters = append(r.Clusters, Cluster{
			Class: campaign.Class(row[0]), Rule: row[1], Fingerprint: row[2], Size: size,
		})
		r.Total += size
	}
	return r
}

func TestDiffReports(t *testing.T) {
	old := mkReport("old",
		[4]string{"rejected-clean", "T-Assign", "aaaa", "3"},
		[4]string{"rejected-clean", "T-If", "bbbb", "2"},
		[4]string{"runtime-error", "-", "cccc", "1"},
		[4]string{"parser-disagreement", "-", "dddd", "2"},
	)
	cur := mkReport("new",
		[4]string{"rejected-clean", "T-Assign", "aaaa", "5"}, // grown
		[4]string{"rejected-clean", "T-If", "bbbb", "2"},     // unchanged
		[4]string{"runtime-error", "-", "eeee", "1"},         // new shape
		[4]string{"parser-disagreement", "-", "dddd", "1"},   // shrunk
	)
	d := DiffReports(old, cur)
	if !d.Changed() {
		t.Fatal("diff reports no change")
	}
	if len(d.New) != 1 || d.New[0].Fingerprint != "eeee" {
		t.Errorf("New = %+v, want the eeee cluster", d.New)
	}
	if len(d.Gone) != 1 || d.Gone[0].Fingerprint != "cccc" {
		t.Errorf("Gone = %+v, want the cccc cluster", d.Gone)
	}
	if len(d.Grown) != 1 || d.Grown[0].Fingerprint != "aaaa" || d.Grown[0].OldSize != 3 || d.Grown[0].Size != 5 {
		t.Errorf("Grown = %+v, want aaaa 3->5", d.Grown)
	}
	if len(d.Shrunk) != 1 || d.Shrunk[0].Fingerprint != "dddd" {
		t.Errorf("Shrunk = %+v, want dddd", d.Shrunk)
	}
	if d.Unchanged != 1 {
		t.Errorf("Unchanged = %d, want 1", d.Unchanged)
	}

	txt := FormatDiff(d)
	for _, want := range []string{"NEW CLUSTER runtime-error/-/eeee", "GROWN rejected-clean/T-Assign/aaaa: 3 -> 5", "SHRUNK", "GONE runtime-error/-/cccc"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text diff missing %q:\n%s", want, txt)
		}
	}
	md := MarkdownDiff(d)
	for _, want := range []string{"### Triage diff", "| **new** | runtime-error | - | `eeee` | 1 |", "| grown | rejected-clean | T-Assign | `aaaa` | 3 → 5 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown diff missing %q:\n%s", want, md)
		}
	}
}

// TestDiffRoundTripsThroughJSON: the artifact form (MarshalJSONReport)
// decodes back (UnmarshalReport) into a report that diffs cleanly against
// itself — the path the nightly workflow takes across runs.
func TestDiffRoundTripsThroughJSON(t *testing.T) {
	c, err := corpus.Open("../../testdata/regression-corpus")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Triage(Config{Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Clusters) == 0 {
		t.Fatalf("regression corpus triage not clean: %+v", rep.Errors)
	}
	raw, err := MarshalJSONReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffReports(rep, back)
	if d.Changed() {
		t.Fatalf("self-diff after JSON round trip reports changes:\n%s", FormatDiff(d))
	}
	if d.Unchanged != len(rep.Clusters) {
		t.Errorf("unchanged %d, want %d", d.Unchanged, len(rep.Clusters))
	}
}

// TestDiffCompactionSummary: when Session.Compact has persisted its
// collapse counters into the corpus's metrics.json, the diff carries a
// one-line convergence summary and both renderers show it; a corpus with
// no (or all-zero) compaction series stays silent.
func TestDiffCompactionSummary(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reg.Counter("compact_entries_total").Add(12)
	reg.Counter("compact_minimized_total").Add(4)
	reg.Counter("compact_collapsed_total").Add(2)
	reg.Counter("compact_bytes_saved_total").Add(900)
	if err := metrics.WriteFile(filepath.Join(dir, "metrics.json"), reg.Snapshot()); err != nil {
		t.Fatalf("write metrics: %v", err)
	}

	old := mkReport(dir, [4]string{"rejected-clean", "T-Assign", "aaaa", "3"})
	cur := mkReport(dir, [4]string{"rejected-clean", "T-Assign", "aaaa", "3"})
	d := DiffReports(old, cur)
	want := "compaction: 12 entries examined, 4 minimized, 2 collapsed, 900 bytes freed"
	if d.Compaction != want {
		t.Fatalf("Compaction = %q, want %q", d.Compaction, want)
	}
	if txt := FormatDiff(d); !strings.Contains(txt, want) {
		t.Errorf("text diff missing the compaction line:\n%s", txt)
	}
	if md := MarkdownDiff(d); !strings.Contains(md, "_"+want+"_") {
		t.Errorf("markdown diff missing the compaction line:\n%s", md)
	}

	// No snapshot (or a zero one) → no line.
	bare := DiffReports(mkReport("nowhere"), mkReport("nowhere"))
	if bare.Compaction != "" {
		t.Errorf("Compaction = %q for a corpus with no telemetry", bare.Compaction)
	}
}
