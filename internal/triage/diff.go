// Triage time-series: diff two cluster reports. The nightly workflow
// uploads one triage JSON per run; comparing consecutive reports tells a
// maintainer what actually changed overnight — a *new* cluster is a new
// defect class (the interesting event), a *grown* cluster is more of a
// known one (volume, not news), a *gone* cluster means a class emptied
// out (retired or minimized away). The diff is keyed the way clusters
// are: (verdict class, cited rule, shape fingerprint), so renamings and
// fresh exemplars don't masquerade as news.
package triage

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// ClusterDelta is one cluster present in both reports whose size changed.
type ClusterDelta struct {
	// Cluster is the cluster as the new report records it.
	Cluster `json:"cluster"`
	// OldSize is its size in the old report.
	OldSize int `json:"old_size"`
}

// DiffReport is the outcome of comparing two triage reports.
type DiffReport struct {
	// OldDir and NewDir echo the compared reports' corpus directories.
	OldDir string `json:"old_dir"`
	NewDir string `json:"new_dir"`
	// New lists clusters present only in the new report — new defect
	// classes, the headline; Gone those present only in the old one.
	New  []Cluster `json:"new,omitempty"`
	Gone []Cluster `json:"gone,omitempty"`
	// Grown and Shrunk list clusters present in both whose size moved.
	Grown  []ClusterDelta `json:"grown,omitempty"`
	Shrunk []ClusterDelta `json:"shrunk,omitempty"`
	// Unchanged counts clusters with identical membership size.
	Unchanged int `json:"unchanged"`
	// Fleet is a one-line summary of the fleet run that produced the new
	// report, read from the metrics.json snapshot p4fuzzd persists next to
	// the corpus: windows covered, lease reclaims, and per-worker merged
	// finding counts. Empty when the corpus has no telemetry snapshot
	// (single-process campaigns, pre-telemetry corpora).
	Fleet string `json:"fleet,omitempty"`
	// Compaction is a one-line summary of corpus convergence, read from
	// the same snapshot: how many entries Session.Compact examined,
	// rewrote smaller, or collapsed onto existing findings, and the bytes
	// freed. Empty when no compaction has recorded statistics — nightly
	// summaries then show growth only.
	Compaction string `json:"compaction,omitempty"`
}

// Changed reports whether the diff found any cluster-level movement.
func (d *DiffReport) Changed() bool {
	return len(d.New) > 0 || len(d.Gone) > 0 || len(d.Grown) > 0 || len(d.Shrunk) > 0
}

// DiffReports compares two triage reports cluster by cluster. Both
// reports keep their ranked order, so the diff's slices are ordered by
// the new report's ranking (Gone by the old one's).
func DiffReports(old, new *Report) *DiffReport {
	d := &DiffReport{OldDir: old.CorpusDir, NewDir: new.CorpusDir}
	oldBy := map[string]*Cluster{}
	for i := range old.Clusters {
		oldBy[old.Clusters[i].key()] = &old.Clusters[i]
	}
	seen := map[string]bool{}
	for i := range new.Clusters {
		nc := new.Clusters[i]
		k := nc.key()
		seen[k] = true
		oc, ok := oldBy[k]
		switch {
		case !ok:
			d.New = append(d.New, nc)
		case nc.Size > oc.Size:
			d.Grown = append(d.Grown, ClusterDelta{Cluster: nc, OldSize: oc.Size})
		case nc.Size < oc.Size:
			d.Shrunk = append(d.Shrunk, ClusterDelta{Cluster: nc, OldSize: oc.Size})
		default:
			d.Unchanged++
		}
	}
	for i := range old.Clusters {
		if !seen[old.Clusters[i].key()] {
			d.Gone = append(d.Gone, old.Clusters[i])
		}
	}
	d.Fleet = fleetSummary(new.CorpusDir)
	d.Compaction = compactionSummary(new.CorpusDir)
	return d
}

// compactionSummary condenses the compact_* counters Session.Compact
// persists into the corpus's metrics.json into one line of convergence
// context. Returns "" when no compaction statistics are recorded.
func compactionSummary(corpusDir string) string {
	if corpusDir == "" {
		return ""
	}
	snap, err := metrics.ReadFile(filepath.Join(corpusDir, "metrics.json"))
	if err != nil {
		return ""
	}
	entries := int(snap.Counter(metrics.CompactEntries))
	minimized := int(snap.Counter(metrics.CompactMinimized))
	collapsed := int(snap.Counter(metrics.CompactCollapsed))
	saved := int(snap.Counter(metrics.CompactBytesSaved))
	if entries == 0 && minimized == 0 && collapsed == 0 {
		return ""
	}
	return fmt.Sprintf("compaction: %d entries examined, %d minimized, %d collapsed, %d bytes freed",
		entries, minimized, collapsed, saved)
}

// fleetSummary condenses the corpus's persisted metrics snapshot into one
// line of fleet context for the diff: how much work the run did and who
// contributed the merged findings. Returns "" when no snapshot exists or
// it records no fleet series.
func fleetSummary(corpusDir string) string {
	if corpusDir == "" {
		return ""
	}
	snap, err := metrics.ReadFile(filepath.Join(corpusDir, "metrics.json"))
	if err != nil {
		return ""
	}
	windows := int(snap.Counter(metrics.FleetWindowsDone))
	reclaims := int(snap.Counter(metrics.FleetReclaims))
	type workerCount struct {
		worker string
		n      int
	}
	var merged []workerCount
	for _, c := range snap.Counters {
		if c.Name == metrics.FleetMergedFindings {
			merged = append(merged, workerCount{c.Labels["worker"], int(c.Value)})
		}
	}
	if windows == 0 && reclaims == 0 && len(merged) == 0 {
		return ""
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].worker < merged[j].worker })
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d windows done, %d reclaims", windows, reclaims)
	if len(merged) > 0 {
		b.WriteString("; merged findings by worker:")
		for _, m := range merged {
			fmt.Fprintf(&b, " %s=%d", m.worker, m.n)
		}
	}
	return b.String()
}

// UnmarshalReport decodes a triage report from its JSON artifact form
// (the output of MarshalJSONReport) — the input format of the diff.
func UnmarshalReport(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("triage: decode report: %w", err)
	}
	return &r, nil
}

// FormatDiff renders the diff as text, new defect classes first.
func FormatDiff(d *DiffReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "triage diff: %s -> %s\n", d.OldDir, d.NewDir)
	fmt.Fprintf(&b, "  %d new, %d grown, %d shrunk, %d gone, %d unchanged\n",
		len(d.New), len(d.Grown), len(d.Shrunk), len(d.Gone), d.Unchanged)
	if d.Fleet != "" {
		fmt.Fprintf(&b, "  %s\n", d.Fleet)
	}
	if d.Compaction != "" {
		fmt.Fprintf(&b, "  %s\n", d.Compaction)
	}
	for _, c := range d.New {
		fmt.Fprintf(&b, "\nNEW CLUSTER %s/%s/%s (%d findings)\n  exemplar %s\n  %s\n",
			c.Class, c.Rule, c.Fingerprint, c.Size, c.ExemplarPath, c.ExemplarDetail)
	}
	for _, c := range d.Grown {
		fmt.Fprintf(&b, "\nGROWN %s/%s/%s: %d -> %d\n", c.Class, c.Rule, c.Fingerprint, c.OldSize, c.Size)
	}
	for _, c := range d.Shrunk {
		fmt.Fprintf(&b, "\nSHRUNK %s/%s/%s: %d -> %d\n", c.Class, c.Rule, c.Fingerprint, c.OldSize, c.Size)
	}
	for _, c := range d.Gone {
		fmt.Fprintf(&b, "\nGONE %s/%s/%s (had %d findings)\n", c.Class, c.Rule, c.Fingerprint, c.Size)
	}
	if !d.Changed() {
		b.WriteString("no cluster-level changes\n")
	}
	return b.String()
}

// MarkdownDiff renders the diff as a GitHub-flavored Markdown fragment —
// the form the nightly workflow appends to its job summary.
func MarkdownDiff(d *DiffReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Triage diff\n\n")
	fmt.Fprintf(&b, "%d new · %d grown · %d shrunk · %d gone · %d unchanged\n\n",
		len(d.New), len(d.Grown), len(d.Shrunk), len(d.Gone), d.Unchanged)
	if d.Fleet != "" {
		fmt.Fprintf(&b, "_%s_\n\n", d.Fleet)
	}
	if d.Compaction != "" {
		fmt.Fprintf(&b, "_%s_\n\n", d.Compaction)
	}
	if !d.Changed() {
		b.WriteString("No cluster-level changes since the previous report.\n")
		return b.String()
	}
	b.WriteString("| change | class | rule | shape | size |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, c := range d.New {
		fmt.Fprintf(&b, "| **new** | %s | %s | `%s` | %d |\n", c.Class, c.Rule, c.Fingerprint, c.Size)
	}
	for _, c := range d.Grown {
		fmt.Fprintf(&b, "| grown | %s | %s | `%s` | %d → %d |\n", c.Class, c.Rule, c.Fingerprint, c.OldSize, c.Size)
	}
	for _, c := range d.Shrunk {
		fmt.Fprintf(&b, "| shrunk | %s | %s | `%s` | %d → %d |\n", c.Class, c.Rule, c.Fingerprint, c.OldSize, c.Size)
	}
	for _, c := range d.Gone {
		fmt.Fprintf(&b, "| gone | %s | %s | `%s` | %d → 0 |\n", c.Class, c.Rule, c.Fingerprint, c.Size)
	}
	return b.String()
}
