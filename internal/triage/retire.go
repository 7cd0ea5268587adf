// Corpus hygiene: retire findings whose defect was deliberately fixed.
//
// Replay flags drift — a persisted finding that no longer classifies the
// way its metadata records. Drift from a *fix* (a parser disagreement
// that now roundtrips, a conservative rejection that now witnesses or
// accepts) leaves the entry permanently red: the corpus can't tell a
// fixed defect from a regressed checker. Retire resolves that, carefully:
//
//  1. every drifted entry is first *promoted* into a retired corpus —
//     re-recorded under the class the current stack assigns, with its
//     original class kept as retired_from — so the fix itself gains a
//     regression guard (if the old defect returns, the re-recorded class
//     drifts and replaying the retired corpus goes red);
//  2. only then is the entry removed from the live corpus;
//  3. the retire report says, per retired entry, whether its (class,
//     rule, shape) cluster still has live members — retiring one
//     exemplar of a still-live defect class is routine; retiring the
//     *last* member means the class is gone and worth a changelog line.
//
// Entries that drift to "unparseable" are not retired: a program the
// current frontend cannot parse cannot be re-recorded as a meaningful
// regression test, so it is reported as an error for a human to resolve.
package triage

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/events"
)

// RetireConfig configures a retire pass.
type RetireConfig struct {
	// CorpusDir is the live corpus to clean.
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the
	// whole pass — the embedded replay, the promote-and-remove loop, and
	// the final survivor triage — runs through it instead of re-opening
	// the directory (historically Retire opened it three times). Session
	// threads one handle through every operation this way.
	Corpus *corpus.Corpus
	// PromoteDir is the retired corpus drifted entries are promoted into
	// before removal ("" = <CorpusDir>/../retired-corpus when CorpusDir
	// has a parent, else "retired-corpus"). Its layout is a corpus —
	// replay it like any other.
	PromoteDir string
	// NITrials and NITrialsMax are the replay NI budget for findings
	// whose metadata predates budget recording (see
	// campaign.ReplayConfig).
	NITrials    int
	NITrialsMax int
	// Log receives one line per retired entry (nil = discard).
	Log io.Writer
	// Events receives one retired event per promoted-and-removed entry
	// (plus the underlying replay's stream); nil discards.
	Events events.Sink
}

// RetiredFinding is one corpus entry moved to the retired corpus.
type RetiredFinding struct {
	// Key and Path identify the entry as it was in the live corpus.
	Key  string `json:"key"`
	Path string `json:"path"`
	// From is the recorded class, To the class the current stack assigns
	// (the retired entry's new recorded class); Detail explains To.
	From   campaign.Class `json:"from"`
	To     campaign.Class `json:"to"`
	Detail string         `json:"detail"`
	// PromotedPath is the retired corpus program file now guarding the fix.
	PromotedPath string `json:"promoted_path"`
	// Rule is the typing rule the entry's original metadata cited ("-"
	// when none); Fingerprint is its AST shape. ClusterSurvivors counts
	// live findings still in its (From, Rule, shape) cluster after the
	// retire pass — 0 means this was the last member of its defect class.
	Rule             string `json:"rule"`
	Fingerprint      string `json:"fingerprint"`
	ClusterSurvivors int    `json:"cluster_survivors"`
}

// RetireReport is a retire pass's outcome.
type RetireReport struct {
	CorpusDir  string `json:"corpus_dir"`
	PromoteDir string `json:"promote_dir"`
	// Total counts findings replayed; Kept those that still reproduce
	// their recorded class and stayed.
	Total int `json:"total"`
	Kept  int `json:"kept"`
	// Retired lists every promoted-and-removed entry.
	Retired []RetiredFinding `json:"retired,omitempty"`
	// Errors lists entries that could not be retired or replayed:
	// unreadable pairs, unparseable programs, promote/remove I/O
	// failures. Errored entries stay in the live corpus.
	Errors []string `json:"errors,omitempty"`
}

// OK reports a clean pass (retiring zero or more entries is clean;
// failing to process one is not).
func (r *RetireReport) OK() bool { return len(r.Errors) == 0 }

// Retire replays the corpus, promotes every drifted finding into the
// retired corpus under its current classification, and removes it from
// the live corpus. The returned error is a context or directory-level
// failure; per-entry problems land in RetireReport.Errors.
func Retire(ctx context.Context, cfg RetireConfig) (*RetireReport, error) {
	promoteDir := cfg.PromoteDir
	if promoteDir == "" {
		promoteDir = filepath.Join(filepath.Dir(filepath.Clean(cfg.CorpusDir)), "retired-corpus")
	}
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	rep := &RetireReport{CorpusDir: cfg.CorpusDir, PromoteDir: promoteDir}

	// One handle for the whole pass: the replay below, the
	// promote-and-remove loop, and the final survivor triage all share
	// its caches and see its removals.
	corp := cfg.Corpus
	if corp == nil {
		dir := cfg.CorpusDir
		if dir == "" {
			dir = "."
		}
		var err error
		if corp, err = corpus.OpenSink(dir, retireSink(cfg.Events)); err != nil {
			return rep, fmt.Errorf("triage: retire: %w", err)
		}
	}

	rr, err := campaign.Replay(ctx, campaign.ReplayConfig{
		CorpusDir:   cfg.CorpusDir,
		Corpus:      corp,
		NITrials:    cfg.NITrials,
		NITrialsMax: cfg.NITrialsMax,
		Events:      retireSink(cfg.Events),
	})
	if err != nil {
		return rep, fmt.Errorf("triage: retire: %w", err)
	}
	rep.Total = rr.Total
	rep.Errors = append(rep.Errors, rr.Errors...)
	drifted := map[string]campaign.Drift{}
	for _, d := range rr.Drifts {
		drifted[d.Path] = d
	}
	// Kept = reproduced the recorded class; entries that errored during
	// replay are neither kept nor retired — they stay and are reported.
	rep.Kept = rr.Reproduced

	// Promote and remove. Iteration is name-sorted, so the pass is
	// deterministic; removal happens per entry only after its promotion
	// succeeded, so a failure mid-pass never loses a finding. Each
	// drifted entry lands in exactly one bucket — Retired or Errors —
	// so Total always equals Kept + Retired + per-entry errors: an entry
	// both drift-flagged and unparseable is one "drifted to unparseable"
	// error, not a drift plus a fingerprint failure (replay now assigns
	// unparseable sources that class uniformly, instead of letting the
	// pipeline relabel them generator-bug).
	// Candidates are gathered first — Remove mutates the handle's index,
	// which must not happen under its own iterator.
	type candidate struct {
		e       *corpus.Entry
		d       campaign.Drift
		fp, src string
	}
	var cands []candidate
	for e, err := range corp.Entries() {
		if err != nil {
			continue // already in rep.Errors via the replay above
		}
		d, ok := drifted[e.Path]
		if !ok {
			continue
		}
		if d.Got == "unparseable" {
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("%s: drifted to unparseable — cannot be re-recorded as a regression test; resolve by hand", e.Path))
			continue
		}
		fp, err := e.Fingerprint()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		src, err := e.Source()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		cands = append(cands, candidate{e: e, d: d, fp: fp, src: src})
	}
	for _, c := range cands {
		e, d, m := c.e, c.d, c.e.Meta
		promoted, err := promote(promoteDir, m, c.src, campaign.Class(d.Got), d.Detail)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: promote: %v", e.Path, err))
			continue
		}
		if err := corp.Remove(e); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: remove: %v", e.Path, err))
			continue
		}
		rep.Retired = append(rep.Retired, RetiredFinding{
			Key:          m.Key,
			Path:         e.Path,
			From:         m.Class,
			To:           campaign.Class(d.Got),
			Detail:       d.Detail,
			PromotedPath: promoted,
			Rule:         m.CitedRule(),
			Fingerprint:  c.fp,
		})
		cfg.Events.Emit(events.Event{
			Kind: events.KindRetired, Op: "retire",
			Class: string(m.Class), Rule: m.CitedRule(),
			Detail: fmt.Sprintf("%s -> %s: %s", m.Class, d.Got, d.Detail),
			Key:    m.Key, Path: e.Path,
		})
		fmt.Fprintf(log, "retired: %s (%s -> %s) promoted to %s\n", e.Path, m.Class, d.Got, promoted)
	}
	if err := corp.SaveIndex(); err != nil {
		fmt.Fprintf(log, "retire: %v (index rebuilt on next open)\n", err)
	}

	// Cluster the surviving corpus once and annotate each retired entry
	// with how much of its defect class remains live — through the same
	// handle, which has already dropped the removed entries.
	if len(rep.Retired) > 0 {
		after, err := Triage(Config{CorpusDir: cfg.CorpusDir, Corpus: corp})
		if err != nil {
			return rep, err
		}
		survivors := map[string]int{}
		for i := range after.Clusters {
			survivors[after.Clusters[i].key()] = after.Clusters[i].Size
		}
		for i := range rep.Retired {
			rf := &rep.Retired[i]
			rf.ClusterSurvivors = survivors[(&Cluster{Class: rf.From, Rule: rf.Rule, Fingerprint: rf.Fingerprint}).key()]
		}
	}
	sort.Strings(rep.Errors)
	return rep, nil
}

// retireSink relabels the embedded replay's events as the retire pass's
// own, so a listener sees one coherent operation.
func retireSink(s events.Sink) events.Sink {
	if s == nil {
		return nil
	}
	return func(e events.Event) {
		e.Op = "retire"
		s(e)
	}
}

// promote writes one drifted finding into the retired corpus under its
// new class, preserving provenance. An entry already present (same new
// key) is left as is — two drifted duplicates collapse.
func promote(dir string, m corpus.Meta, src string, to campaign.Class, detail string) (string, error) {
	if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
		return "", err
	}
	m.RetiredFrom = m.Class
	m.RetiredAt = time.Now()
	m.Class = to
	m.Detail = detail
	m.Key = corpus.DedupKey(to, src)
	stem := fmt.Sprintf("%s-%s", m.Class, m.Key[:12])
	progPath := filepath.Join(dir, "findings", stem+".p4")
	metaPath := filepath.Join(dir, "findings", stem+".json")
	if _, err := os.Stat(metaPath); err == nil {
		return progPath, nil
	}
	// Program first, metadata last: metadata presence is the
	// already-promoted check above, so it must imply a complete pair — a
	// crash between the two writes then leaves a harmless orphan .p4 that
	// the next retire pass overwrites, not a wedged corpus.
	if err := os.WriteFile(progPath, []byte(src), 0o644); err != nil {
		return "", err
	}
	if err := corpus.WriteMeta(metaPath, m); err != nil {
		return "", err
	}
	return progPath, nil
}

// FormatRetireReport renders a retire pass's outcome.
func FormatRetireReport(r *RetireReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "retire: %s, %d findings replayed, %d kept, %d retired\n",
		r.CorpusDir, r.Total, r.Kept, len(r.Retired))
	for _, rf := range r.Retired {
		fmt.Fprintf(&b, "\nRETIRED %s\n  %s -> %s: %s\n  promoted to %s\n", rf.Path, rf.From, rf.To, rf.Detail, rf.PromotedPath)
		if rf.ClusterSurvivors > 0 {
			fmt.Fprintf(&b, "  defect class still live: %d finding(s) share cluster %s/%s\n",
				rf.ClusterSurvivors, rf.From, rf.Fingerprint)
		} else {
			fmt.Fprintf(&b, "  last member of cluster %s/%s — the defect class is fully retired\n",
				rf.From, rf.Fingerprint)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\nERROR %s\n", e)
	}
	switch {
	case !r.OK():
		fmt.Fprintf(&b, "FAIL: %d entries could not be processed (see above)\n", len(r.Errors))
	case len(r.Retired) == 0:
		b.WriteString("PASS: no drift — nothing to retire\n")
	default:
		fmt.Fprintf(&b, "PASS: %d fixed findings promoted to %s and retired from the live corpus\n",
			len(r.Retired), r.PromoteDir)
	}
	return b.String()
}
