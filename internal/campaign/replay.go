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
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/shrink"
)

// ReplayConfig configures a corpus replay.
type ReplayConfig struct {
	// Corpus is the open corpus to replay (required). An empty corpus
	// replays zero findings and passes — the first nightly run has
	// nothing to regress against. Each finding replays under the NI
	// budget its metadata records; one recorded without a budget replays
	// under pipeline.Budget's defaults.
	Corpus *corpus.Corpus
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

// Replay re-checks every persisted finding in the corpus against the
// current checker stack. The returned error is a context failure or a
// missing corpus; drift is reported in the ReplayReport, not as an error.
func Replay(ctx context.Context, cfg ReplayConfig) (*ReplayReport, error) {
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("campaign: replay needs an open corpus")
	}
	rep := &ReplayReport{ByClass: map[Class]int{}, CorpusDir: cfg.Corpus.Dir()}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()

	var seq int64
	for e, err := range cfg.Corpus.Entries() {
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
		j, err := judgeOf(e.Meta)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, err))
			continue
		}
		got, detail, _, err := j.classify(ctx, src)
		if err != nil {
			return rep, err
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
		} else {
			rep.Reproduced++
		}
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "replay", Done: rep.Total, Total: rep.Total,
	})
	return rep, nil
}

// judge re-judges sources on behalf of one stored or candidate finding:
// its lattice, NI budget and NI seed, and its recorded class. The
// campaign's shrink, Replay, Compact (both its drift check and its
// shrink) and, through Replay, triage's Retire all judge through it, so
// a finding kept under a class replays to that class.
type judge struct {
	lat    lattice.Lattice
	budget pipeline.Budget
	niSeed int64
	// met, when non-nil, receives the pipeline's series for every
	// analysis (a campaign's shrink replays are real pipeline work).
	met *metrics.Registry
	// class is the recorded class. It picks the roundtrip check for
	// parser-disagreement and roundtrip-clean findings.
	class Class
}

// judgeOf is the judge for a stored finding: the lattice, budget and
// seed its metadata records. A finding recorded without a trial budget
// is judged under pipeline.Budget's defaults; one recorded without an
// oracle, under the default oracle.
func judgeOf(m corpus.Meta) (judge, error) {
	lat, err := m.Gen.ResolveLattice()
	if err != nil {
		return judge{}, err
	}
	return judge{
		lat: lat,
		budget: pipeline.Budget{Trials: m.NITrials, TrialsMax: m.NITrialsMax,
			Oracle: m.NIOracle, ExhaustBudget: m.ExhaustBudget, ExhaustProbes: m.ExhaustProbes},
		niSeed: m.NISeed,
		class:  m.Class,
	}, nil
}

// classify returns the class the current stack gives src — a corpus class,
// or "sound", "rejected-witnessed", "roundtrip-clean" or "unparseable" —
// the detail that explains it and the typing rule its first rule-bearing
// IFC diagnostic cites ("" for the frontend classes). Once ctx is done it
// analyses nothing and returns ctx.Err().
//
// A source the frontend no longer parses judges "unparseable", whatever
// the recorded class, so a drifted verdict entry is never relabelled a
// generator bug (which retire's fingerprint pass would then report
// twice). Generator-bug findings are exempt: an unparseable program can
// be exactly the recorded defect, and Classify reproduces it as such.
func (j judge) classify(ctx context.Context, src string) (class, detail, rule string, err error) {
	if err := ctx.Err(); err != nil {
		return "", "", "", err
	}
	if j.class == ClassParserDisagreement || j.class == ClassRoundtripClean {
		prog, err := parser.Parse("replay.p4", src)
		if err != nil {
			return "unparseable", err.Error(), "", nil
		}
		if detail, bad := roundtripDisagreement("replay.p4", src, prog); bad {
			return string(ClassParserDisagreement), detail, "", nil
		}
		return string(ClassRoundtripClean), "parse → print → reparse is now a fixed point", "", nil
	}
	r := pipeline.Analyze(pipeline.Job{Name: "replay.p4", Source: src, Lat: j.lat}, pipeline.Options{
		NI:      true,
		Budget:  j.budget,
		NISeed:  j.niSeed,
		Metrics: j.met,
	})
	if r.ParseErr != nil && j.class != ClassGeneratorBug {
		return "unparseable", r.ParseErr.Error(), "", nil
	}
	_, c, detail := verdictOf(&r)
	return string(c), detail, r.CitedRule(), nil
}

// verdictOf is the one mapping from an analysed job to its verdict, the
// class that verdict files under and the detail that explains it. The
// campaign records findings through it and the judge re-judges them
// through it, so an entry retire re-records carries the detail a
// campaign would have given it. A rejection with no witness cites its
// first IFC diagnostic; the two verdicts no campaign persists file as
// ClassSound and ClassRejectedWitnessed.
func verdictOf(r *pipeline.JobResult) (difftest.Verdict, Class, string) {
	v, detail := difftest.Classify(r)
	if detail == "" && r.IFC != nil && !r.IFC.OK && len(r.IFC.Diags) > 0 {
		detail = r.IFC.Diags[0].Error()
	}
	if class, ok := classOf(v); ok {
		return v, class, detail
	}
	if v == difftest.Sound {
		return v, ClassSound, "IFC-accepted and NI-clean"
	}
	return v, ClassRejectedWitnessed, detail
}

// judged is a candidate the judge kept, with the detail and rule it gave
// the candidate.
type judged struct {
	src, detail, rule string
}

// keep is the shrink predicate over j: a candidate stays iff it judges
// to the recorded class. Once ctx is done it keeps nothing, so a cancel
// stops the shrinks in flight.
//
// keep records in best the shortest candidate it has kept so far, the
// first on ties. shrink.Minimize picks its result by the same rule, so
// after a shrink best is the result with its verdict, and the caller
// need not judge it again.
//
// Each candidate is judged on a goroutine of its own, which keep waits
// for. A shrink judges hundreds of candidates back to back, and a
// campaign shrinks on every CPU at once; judged inline, that work never
// gives the scheduler a gap in which to run the GC's background mark
// worker, so marking is left to allocation assists and the heap
// overshoots its goal (in GC traces of the perfbench campaign workloads,
// with peak RSS about 9% higher).
func (j judge) keep(ctx context.Context, best *judged) shrink.Keep {
	return func(cand string) bool {
		kept := make(chan bool, 1)
		go func() {
			got, detail, rule, err := j.classify(ctx, cand)
			ok := err == nil && got == string(j.class)
			if ok && (best.src == "" || len(cand) < len(best.src)) {
				*best = judged{cand, detail, rule}
			}
			kept <- ok
		}()
		return <-kept
	}
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
