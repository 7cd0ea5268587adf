// Replay turns the corpus into a regression suite: every persisted
// finding is re-checked against the current checker stack, and any
// verdict drift — a finding that no longer classifies the way its
// metadata records — fails the replay. Drift cuts both ways and both are
// worth a red light: a rejected-clean entry that starts witnessing means
// checker or interpreter behavior changed; a parser-disagreement entry
// that starts roundtripping means the frontend defect it documents was
// fixed and the entry should be retired (or promoted to a test).
package campaign

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/parser"
	"repro/internal/pipeline"
)

// ReplayConfig configures a corpus replay.
type ReplayConfig struct {
	// CorpusDir is the corpus to replay. A missing or empty findings
	// directory replays zero findings and passes — the first nightly run
	// has nothing to regress against.
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the
	// replay reads through it (sharing its source and parse caches)
	// instead of opening the directory again. Session threads one handle
	// through every operation this way.
	Corpus *corpus.Corpus
	// NITrials and NITrialsMax are the NI budget for findings whose
	// metadata predates budget recording (pipeline.Budget's Trials and
	// TrialsMax, with its defaults). Findings recorded with their budget
	// replay under it.
	NITrials    int
	NITrialsMax int
	// Log receives one line per drifted finding (nil = discard).
	Log io.Writer
	// Events receives the replay's structured event stream (job-done per
	// replayed finding, drift per mismatch); nil discards.
	Events events.Sink
}

// Drift is one finding whose replayed classification no longer matches
// the recorded one.
type Drift struct {
	// Path is the finding's program file.
	Path string
	// Recorded is the persisted class; Got is the class (or verdict
	// description) the current stack assigns; Detail explains Got.
	Recorded Class
	Got      string
	Detail   string
}

// ReplayReport is a replay's outcome.
type ReplayReport struct {
	// Total counts findings replayed; ByClass splits them by recorded
	// class. Reproduced counts findings whose replayed class matched the
	// recorded one — Total minus drifts minus entries that errored after
	// being counted.
	Total      int
	Reproduced int
	ByClass    map[Class]int
	// Drifts holds every verdict drift; Errors every finding that could
	// not be replayed at all (unreadable pair, unresolvable lattice).
	Drifts []Drift
	Errors []string
	// Elapsed is wall-clock replay time; CorpusDir echoes the corpus.
	Elapsed   time.Duration
	CorpusDir string
}

// OK reports a clean replay: every finding reproduced its recorded class.
func (r *ReplayReport) OK() bool { return len(r.Drifts) == 0 && len(r.Errors) == 0 }

// Replay re-checks every persisted finding under dir against the current
// checker stack. The returned error is a context or corpus-I/O failure;
// drift is reported in the ReplayReport, not as an error.
func Replay(ctx context.Context, cfg ReplayConfig) (*ReplayReport, error) {
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	rep := &ReplayReport{ByClass: map[Class]int{}, CorpusDir: cfg.CorpusDir}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()

	c := cfg.Corpus
	if c == nil {
		dir := cfg.CorpusDir
		if dir == "" {
			dir = "."
		}
		var err error
		if c, err = corpus.OpenSink(dir, cfg.Events); err != nil {
			return rep, fmt.Errorf("campaign: replay: %w", err)
		}
	}
	var seq int64
	for e, err := range c.Entries() {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return rep, ctxErr
		}
		if err != nil {
			rep.Errors = append(rep.Errors, err.Error())
			continue
		}
		rep.Total++
		rep.ByClass[e.Meta.Class]++
		src, err := e.Source()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		got, detail, err := replayOne(ctx, e.Meta, src, cfg.NITrials, cfg.NITrialsMax)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		cfg.Events.Emit(events.Event{
			Kind: events.KindJobDone, Op: "replay",
			Index: seq, Class: got, Key: e.Meta.Key, Path: e.Path,
		})
		seq++
		if got != string(e.Meta.Class) {
			rep.Drifts = append(rep.Drifts, Drift{Path: e.Path, Recorded: e.Meta.Class, Got: got, Detail: detail})
			cfg.Events.Emit(events.Event{
				Kind: events.KindDrift, Op: "replay",
				Class: string(e.Meta.Class), Detail: fmt.Sprintf("now %s: %s", got, detail),
				Key: e.Meta.Key, Path: e.Path,
			})
			fmt.Fprintf(log, "drift: %s recorded %s, now %s (%s)\n", e.Path, e.Meta.Class, got, detail)
		} else {
			rep.Reproduced++
		}
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "replay", Done: rep.Total, Total: rep.Total,
	})
	return rep, nil
}

// replayOne re-classifies one finding under its recorded budget; trials
// and max stand in for trial counts its metadata does not record. The
// returned string is the corpus class the current stack assigns, or a
// description when the result has no corpus class ("sound",
// "rejected-witnessed", "roundtrip-clean", ...).
func replayOne(ctx context.Context, m corpus.Meta, src string, trials, max int) (string, string, error) {
	// A persisted program the frontend no longer parses drifts to
	// "unparseable" uniformly, whatever its recorded class. Verdict
	// classes used to skip this check and fall into the pipeline, where
	// the parse failure resurfaced as a generator-bug verdict — so an
	// unparseable rejected-clean entry drifted to the wrong class and was
	// then double-reported by retire's fingerprint pass. Generator-bug
	// entries are exempt: an unparseable program can be exactly the
	// recorded defect, and the pipeline reproduces it as such.
	if m.Class != ClassGeneratorBug {
		prog, err := parser.Parse("replay.p4", src)
		if err != nil {
			return "unparseable", err.Error(), nil
		}
		if m.Class == ClassParserDisagreement || m.Class == ClassRoundtripClean {
			if detail, bad := roundtripDisagreement("replay.p4", src, prog); bad {
				return string(ClassParserDisagreement), detail, nil
			}
			return string(ClassRoundtripClean), "parse → print → reparse is now a fixed point", nil
		}
	}

	lat, err := m.Gen.ResolveLattice()
	if err != nil {
		return "", "", err
	}
	// Replay under the oracle the finding was classified with: the
	// proved-imprecise/secret-exhaustive/under-tested classes only
	// reproduce under the exhaustive oracle at the recorded budget.
	// Entries predating the oracle split record "" and replay under the
	// default, unchanged.
	b := pipeline.Budget{Trials: trials, TrialsMax: max,
		Oracle: m.NIOracle, ExhaustBudget: m.ExhaustBudget, ExhaustProbes: m.ExhaustProbes}
	if m.NITrials > 0 {
		b.Trials = m.NITrials
	}
	if m.NITrialsMax > 0 {
		b.TrialsMax = m.NITrialsMax
	}
	sum, err := pipeline.Run(ctx, []pipeline.Job{{Name: "replay.p4", Source: src, Lat: lat}}, pipeline.Options{
		Workers: 1,
		NI:      pipeline.NIAll,
		Budget:  b,
		NISeed:  m.NISeed,
	})
	if err != nil {
		return "", "", err
	}
	if len(sum.Results) != 1 {
		return "", "", fmt.Errorf("replay produced %d results", len(sum.Results))
	}
	v, detail := difftest.Classify(&sum.Results[0])
	if class, ok := classOf(v); ok {
		return string(class), detail, nil
	}
	switch v {
	case difftest.Sound:
		return string(ClassSound), "IFC-accepted and NI-clean", nil
	case difftest.RejectedWitnessed:
		return string(ClassRejectedWitnessed), detail, nil
	}
	return v.String(), detail, nil
}

// FormatReplayReport renders a replay outcome.
func FormatReplayReport(r *ReplayReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus replay: %s, %d findings, %v\n",
		r.CorpusDir, r.Total, r.Elapsed.Round(time.Millisecond))
	classes := make([]string, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-24s %6d\n", c, r.ByClass[Class(c)])
	}
	for _, d := range r.Drifts {
		fmt.Fprintf(&b, "\nDRIFT %s\n  recorded %s, now %s\n  %s\n", d.Path, d.Recorded, d.Got, d.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\nERROR %s\n", e)
	}
	switch {
	case r.OK():
		fmt.Fprintf(&b, "PASS: all %d persisted findings reproduce their recorded classes\n", r.Total)
	default:
		fmt.Fprintf(&b, "FAIL: %d drifted, %d unreplayable (see above)\n", len(r.Drifts), len(r.Errors))
	}
	return b.String()
}
