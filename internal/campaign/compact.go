// Compact: re-minimize the corpus with the current shrinker. A corpus
// accumulates entries minimized by older, weaker shrinkers (or not
// minimized at all, when the finding run had -minimize off); as the
// shrinker improves, distinct entries can share one canonical minimal
// form. Compacting re-runs minimization over every entry under its
// recorded replay budget and folds the corpus onto the smaller forms:
//
//   - an entry whose minimized form hashes to a key already in the corpus
//     collapses — it is removed, and the existing entry (same class by
//     construction: dedup keys hash class and source together) survives
//     as the pair's canonical representative;
//   - an entry whose minimized form is new is rewritten promote-first:
//     the smaller pair is persisted before the old one is removed, so a
//     crash mid-compaction duplicates a finding rather than losing one;
//   - entries that no longer reproduce their recorded class are skipped —
//     drift is Retire's business, and minimizing against a drifted
//     predicate would record the wrong program.
//
// The keep predicate replays candidates with the entry's recorded NI
// seed and trial budget, so a compacted corpus replays clean by the same
// argument the original persistence did.
package campaign

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/shrink"
)

// CompactConfig configures a corpus compaction.
type CompactConfig struct {
	// CorpusDir is the corpus to compact.
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the pass
	// runs through it instead of opening the directory again.
	Corpus *corpus.Corpus
	// NITrials and NITrialsMax are the replay budget for entries whose
	// metadata predates budget recording (see ReplayConfig).
	NITrials    int
	NITrialsMax int
	// Log receives one line per rewritten or collapsed entry (nil =
	// discard).
	Log io.Writer
	// Events receives job-done events per entry and a final progress
	// tick; nil discards.
	Events events.Sink
	// Metrics, when non-nil, receives the pass's collapse statistics
	// (compact_entries_total, compact_minimized_total,
	// compact_collapsed_total, compact_bytes_saved_total,
	// compact_skipped_total). The Session persists them into the corpus's
	// metrics.json, where triage.DiffReports picks them up so nightly
	// summaries show corpus convergence, not just growth.
	Metrics *metrics.Registry
}

// CompactReport is a compaction's outcome.
type CompactReport struct {
	CorpusDir string `json:"corpus_dir"`
	// Total counts well-formed entries examined; Skipped those left alone
	// because they drifted from their recorded class (or their pair was
	// corrupt) — Retire's business, not Compact's.
	Total   int `json:"total"`
	Skipped int `json:"skipped"`
	// Minimized counts entries rewritten to a strictly smaller form under
	// a new key; Collapsed counts entries removed because their minimized
	// form already had a corpus entry. BytesSaved totals the reduction.
	Minimized  int `json:"minimized"`
	Collapsed  int `json:"collapsed"`
	BytesSaved int `json:"bytes_saved"`
	// Errors lists entries that could not be processed; errored entries
	// stay in the corpus untouched.
	Errors []string `json:"errors,omitempty"`
	// Elapsed is wall-clock compaction time.
	Elapsed time.Duration `json:"elapsed"`
}

// OK reports a clean pass.
func (r *CompactReport) OK() bool { return len(r.Errors) == 0 }

// Compact re-minimizes every corpus entry with the current shrinker and
// folds newly-equal dedup keys together, promote-first so no finding is
// lost mid-compaction. The returned error is a context or corpus-I/O
// failure; per-entry problems land in CompactReport.Errors.
func Compact(ctx context.Context, cfg CompactConfig) (*CompactReport, error) {
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	rep := &CompactReport{CorpusDir: cfg.CorpusDir}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()
	// Pre-register the collapse series so a no-op pass still leaves them
	// (at zero) in the persisted snapshot, then add the final tallies on
	// the way out — the report is built incrementally, so one deferred
	// add covers every exit path.
	met := cfg.Metrics
	met.Counter(metrics.CompactEntries)
	met.Counter(metrics.CompactMinimized)
	met.Counter(metrics.CompactCollapsed)
	met.Counter(metrics.CompactBytesSaved)
	met.Counter(metrics.CompactSkipped)
	defer func() {
		met.Counter(metrics.CompactEntries).Add(int64(rep.Total))
		met.Counter(metrics.CompactMinimized).Add(int64(rep.Minimized))
		met.Counter(metrics.CompactCollapsed).Add(int64(rep.Collapsed))
		met.Counter(metrics.CompactBytesSaved).Add(int64(rep.BytesSaved))
		met.Counter(metrics.CompactSkipped).Add(int64(rep.Skipped))
	}()

	corp := cfg.Corpus
	if corp == nil {
		dir := cfg.CorpusDir
		if dir == "" {
			dir = "."
		}
		var err error
		if corp, err = corpus.OpenSink(dir, cfg.Events); err != nil {
			return rep, fmt.Errorf("campaign: compact: %w", err)
		}
	}

	// Snapshot the entry list first: collapse and rewrite both mutate the
	// handle's index, which must not happen under its own iterator.
	var entries []*corpus.Entry
	for e, err := range corp.Entries() {
		if err != nil {
			rep.Skipped++
			continue
		}
		entries = append(entries, e)
	}
	total := len(entries)
	for i, e := range entries {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return rep, ctxErr
		}
		m := e.Meta
		src, err := e.Source()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		rep.Total++
		got, _, err := replayOne(ctx, m, src, cfg.NITrials, cfg.NITrialsMax)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		cfg.Events.Emit(events.Event{
			Kind: events.KindJobDone, Op: "compact",
			Index: int64(i), Class: got, Key: m.Key, Path: e.Path,
		})
		if got != string(m.Class) {
			rep.Skipped++
			continue
		}
		// Minimize under the entry's own recorded replay budget: a
		// candidate is kept iff it replays to the recorded class, so the
		// compacted entry replays clean by construction.
		keep := func(cand string) bool {
			g, _, err := replayOne(ctx, m, cand, cfg.NITrials, cfg.NITrialsMax)
			return err == nil && g == string(m.Class)
		}
		name := strings.TrimSuffix(e.Name, ".json") + ".p4"
		res, err := shrink.Minimize(name, src, keep)
		if err != nil || len(res.Source) >= len(src) {
			continue // already minimal (or unshrinkable) — leave as is
		}
		newKey := corpus.DedupKey(m.Class, res.Source)
		if corp.Has(newKey) {
			// The minimized form is an existing finding: the two entries
			// were one defect all along. The survivor shares the dedup
			// key's class, so no verdict class is lost.
			if err := corp.Remove(e); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: remove: %v", e.Path, err))
				continue
			}
			rep.Collapsed++
			rep.BytesSaved += len(src)
			fmt.Fprintf(log, "collapsed: %s onto %.12s (%d bytes freed)\n", e.Path, newKey, len(src))
			continue
		}
		nm := m
		nm.Key = newKey
		nm.Bytes = len(res.Source)
		nm.Minimized = true
		path, err := corp.Put(nm, res.Source)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: rewrite: %v", e.Path, err))
			continue
		}
		if err := corp.Remove(e); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: remove: %v", e.Path, err))
			continue
		}
		rep.Minimized++
		rep.BytesSaved += len(src) - len(res.Source)
		fmt.Fprintf(log, "minimized: %s -> %s (%d -> %d bytes)\n", e.Path, path, len(src), len(res.Source))
	}
	if err := corp.SaveIndex(); err != nil {
		fmt.Fprintf(log, "compact: %v (index rebuilt on next open)\n", err)
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "compact", Done: total, Total: total,
	})
	sort.Strings(rep.Errors)
	return rep, nil
}

// FormatCompactReport renders a compaction's outcome.
func FormatCompactReport(r *CompactReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus compact: %s, %d findings examined, %v\n",
		r.CorpusDir, r.Total, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %d minimized, %d collapsed, %d bytes saved, %d skipped\n",
		r.Minimized, r.Collapsed, r.BytesSaved, r.Skipped)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\nERROR %s\n", e)
	}
	switch {
	case !r.OK():
		fmt.Fprintf(&b, "FAIL: %d entries could not be compacted (see above)\n", len(r.Errors))
	case r.Minimized+r.Collapsed == 0:
		b.WriteString("PASS: corpus already compact\n")
	default:
		fmt.Fprintf(&b, "PASS: %d entries rewritten smaller, %d collapsed onto existing findings\n",
			r.Minimized, r.Collapsed)
	}
	return b.String()
}
