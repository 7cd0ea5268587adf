// Command p4fuzz runs the campaign stack: differential soundness-fuzzing
// against the P4BID checker, corpus replay, triage, and corpus hygiene,
// all over one persistent finding corpus through the repro.Session API.
//
// Usage:
//
//	p4fuzz run    [-n 1000] [-seed 1] [-trials N] [-trials-max N]
//	              [-workers 0] [-depth 3] [-stmts 5] [-fields 3]
//	              [-timeout 0] [-lattice SPEC] [-corpus-dir DIR]
//	              [-ni-oracle NAME] [-exhaust-budget N] [-exhaust-probes N]
//	              [-minimize] [-mutate] [-triage] [-events] [-events-json]
//	p4fuzz replay [-trials 4] [-trials-max 32] [-events] [-events-json]
//	              [DIR]
//	p4fuzz triage [-json] [-novelty N] [-o FILE] [-events] [-events-json]
//	              [DIR]
//	p4fuzz triage -diff [-md] [-o FILE] OLD.json NEW.json
//	p4fuzz retire [-promote-dir DIR] [-trials 4] [-trials-max 32]
//	              [-events] [-events-json] [DIR]
//	p4fuzz compact [-trials 4] [-trials-max 32] [-events] [-events-json]
//	              DIR
//	p4fuzz index  [-o FILE] [DIR]
//
// A missing or unknown subcommand prints this usage and exits 2.
//
// # run
//
// run is a campaign over the global indices [0, n): it generates jobs
// lazily, cross-checks each program against the IFC checker, the baseline
// checker, the NI oracle, and the parse → print → reparse roundtrip, and
// deduplicates interesting programs. With -corpus-dir it persists them
// (with verdict metadata) there; without it they are kept in memory and
// listed in the report. -minimize shrinks findings first. To continue a
// search across runs, or to split one across processes, run it as a
// fleet with cmd/p4fuzzd: the fleet's frontier records where the last run
// stopped.
//
// -lattice selects the campaign lattice: two-point
// (default), diamond, chain:N, nparty:N, powerset:N, or product:a,b
// (components themselves specs, e.g. product:two-point,diamond).
// Generated programs are annotated against it and checked under it, so
// taller and wider lattices exercise label flows two-point programs cannot
// express; powerset and product elements spell label-safely (p_a_b,
// x_low_high), so they work in source annotations. -mutate closes the
// coverage-guided loop: half the jobs become AST-level mutants of
// persisted corpus findings (seed pool weighted by verdict class,
// recency, novelty, and triage-cluster saturation). -triage appends the
// corpus's ranked cluster summary after the campaign.
//
// -events streams structured progress to stderr while any subcommand
// runs: op-start/op-end framing around every operation, coarse progress
// ticks and drift/cluster/retired lines as they happen, one finding line
// per new finding as the post-analysis phase minimizes and persists it,
// and a warning line with the drop count when a slow listener forced the
// stream to shed events — the live view CI logs tail, where the final
// report is the summary. -events-json emits the same stream as one JSON
// object per line on stdout (repro.Event marshalled verbatim, the form
// fleet coordinators and jq pipelines consume); the report then prints
// to stderr so stdout stays machine-parseable.
//
// Every operation also leaves its telemetry behind: progress ticks carry
// jobs/sec and findings/sec, periodic metrics events ship full registry
// snapshots on the stream, and when -corpus-dir is set a metrics.json
// snapshot (job counters, per-stage pipeline timings, op-duration
// histograms) is rewritten atomically next to the corpus at op-end — the
// artifact CI's jq gate validates. Live endpoints are p4fuzzd's job: see
// `p4fuzzd -http`.
//
// # replay, retire
//
// replay re-checks every finding persisted under DIR (default
// testdata/regression-corpus) against the current checker stack and exits
// 1 on any verdict drift — the corpus as a regression suite. retire is
// the corpus hygiene pass: findings whose recorded defect the current
// stack no longer reproduces are first promoted into -promote-dir as a
// retired regression corpus — re-recorded under their current
// classification, so the fix stays guarded — and then removed from the
// live corpus; exit 1 if any entry could not be processed.
//
// # compact, index
//
// compact re-minimizes every finding under DIR with the current shrinker
// and folds newly-equal dedup keys together: entries whose minimized form
// matches an existing finding collapse onto it, strictly smaller forms
// replace their originals (promote-first, so no finding is lost
// mid-compaction), and drifted entries are left for retire. Like retire
// it demands an explicit DIR — it rewrites corpus entries. Exit 1 if any
// entry could not be processed.
//
// index opens DIR — rebuilding and persisting its findings/index.json
// when missing or stale — and prints the corpus statistics as JSON. The
// stats derive from the index alone, so CI uses it as a round-trip gate:
// delete the index, rebuild, and the stats must be byte-identical.
//
// # triage
//
// triage prints the corpus's ranked cluster table (findings grouped by
// verdict class, cited typing rule, and AST shape fingerprint) as text or
// JSON (-json), optionally to a file (-o). Exit 1 when any corpus entry
// is malformed, so a CI gate over a checked-in corpus fails the moment
// its metadata rots.
//
// triage -diff compares two JSON reports (the -json form) as a time
// series: clusters present only in NEW are new defect classes, grown
// ones are more of a known class, gone ones emptied out. When the new
// report's corpus has a persisted metrics.json, the diff also prints a
// one-line fleet summary (windows done, lease reclaims, merged findings
// per worker) and a compaction summary. -md renders the diff as a
// GitHub-flavored Markdown fragment, the form the nightly workflow
// appends to its job summary. Exit 0, or 2 when a report is unreadable.
//
// -trials is the per-program NI budget; when -trials-max exceeds it, the
// budget is adaptive — accepted programs get -trials, rejected programs
// escalate toward -trials-max until a witness appears. The default is an
// adaptive 4/32 split; -trials N alone escalates toward 8N.
//
// Exit status 0 if the operation found no defects, 1 on any defect,
// drift, malformed corpus entry, or aborted run, 2 on usage errors.
// Every finding is reported with its per-program generation seed, so a
// failure replays with p4fuzz run -n 1 -seed <that seed> — passing the
// same -depth/-stmts/-fields flags as the original campaign, plus
// -corpus-dir to keep the program's source.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/gen"
)

const usage = `usage: p4fuzz <subcommand> [flags]

subcommands:
  run      differential fuzzing campaign (persists findings with -corpus-dir)
  replay   re-check a corpus against the current checker stack
  triage   cluster a corpus by verdict class, cited rule, and AST shape
  retire   promote findings the current stack no longer reproduces
  compact  re-minimize a corpus and fold equal findings together
  index    rebuild a corpus index and print its statistics

Run 'p4fuzz <subcommand> -h' for the subcommand's flags.
`

func main() {
	subcommands := map[string]func([]string) int{
		"run":     runMain,
		"replay":  replayMain,
		"triage":  triageMain,
		"retire":  retireMain,
		"compact": compactMain,
		"index":   indexMain,
	}
	if len(os.Args) < 2 || subcommands[os.Args[1]] == nil {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(subcommands[os.Args[1]](os.Args[2:]))
}

// eventMode is how a subcommand streams its session's events: not at
// all, rendered as text lines on stderr (-events), or as one JSON object
// per line on stdout (-events-json; the report moves to stderr so stdout
// stays machine-parseable).
type eventMode int

const (
	eventsOff eventMode = iota
	eventsText
	eventsJSON
)

func pickEventMode(text, asJSON bool) eventMode {
	if asJSON {
		return eventsJSON
	}
	if text {
		return eventsText
	}
	return eventsOff
}

// reportWriter is where a subcommand's final report goes: stdout
// normally, stderr when stdout is the -events-json stream.
func (m eventMode) reportWriter() *os.File {
	if m == eventsJSON {
		return os.Stderr
	}
	return os.Stdout
}

// watchEvents starts the live event renderer when a mode is selected.
// The returned stop function closes the session's stream and waits for
// the renderer to drain, so every event of the finished operation —
// including the op-end framing — is rendered before the report prints.
func watchEvents(s *repro.Session, mode eventMode) (stop func()) {
	if mode == eventsOff {
		return func() { s.Close() }
	}
	ch := s.Events()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if mode == eventsJSON {
			enc := json.NewEncoder(os.Stdout)
			for ev := range ch {
				// repro.Event marshalled verbatim, one object per line —
				// the contract CI's jq gate and fleet coordinators parse.
				enc.Encode(ev)
			}
			return
		}
		for ev := range ch {
			// Event.Text is the shared one-line rendering; job-done events
			// have none (too chatty at campaign rates) and are skipped.
			if line := ev.Text(); line != "" {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() {
		s.Close()
		<-done
	}
}

// corpusArg resolves a subcommand's corpus directory: the positional
// argument if given, else the flag/default. More than one positional is a
// usage error.
func corpusArg(fs *flag.FlagSet, def string) (string, bool) {
	switch fs.NArg() {
	case 0:
		return def, true
	case 1:
		return fs.Arg(0), true
	default:
		fmt.Fprintf(os.Stderr, "p4fuzz: unexpected arguments %v\n", fs.Args()[1:])
		return "", false
	}
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz run", flag.ExitOnError)
	n := fs.Int("n", 1000, "number of programs to generate and cross-check")
	seed := fs.Int64("seed", 1, "base generation seed (program i uses seed+i)")
	trials := fs.Int("trials", 0, "base NI trials per program (0 = 4)")
	trialsMax := fs.Int("trials-max", 0, "adaptive NI ceiling for rejected programs (0 = 8x -trials, <0 or <= -trials disables)")
	niOracle := fs.String("ni-oracle", "", "NI backend: adaptive (default), randomized, or exhaustive (proof-grade verdicts within -exhaust-budget)")
	exhaustBudget := fs.Uint64("exhaust-budget", 0, "exhaustive oracle: assignment ceiling per observer (0 = 2^16)")
	exhaustProbes := fs.Int("exhaust-probes", 0, "exhaustive oracle: public-input probes when only the secret space fits (0 = derived)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	depth := fs.Int("depth", 3, "max conditional nesting in generated programs")
	stmts := fs.Int("stmts", 5, "max statements per generated block")
	fields := fs.Int("fields", 3, "low/high header fields in generated programs")
	timeout := fs.Duration("timeout", 0, "overall campaign timeout (0 = none)")
	latSpec := fs.String("lattice", "", "campaign lattice: two-point (default), diamond, chain:N, nparty:N, powerset:N, or product:a,b")
	corpusDir := fs.String("corpus-dir", "", "persistent corpus directory (\"\" = keep findings in memory)")
	minimize := fs.Bool("minimize", false, "shrink findings to minimal reproducers before persisting")
	mutateSeeds := fs.Bool("mutate", false, "mutate persisted corpus findings for half the jobs (coverage-guided loop)")
	triageAfter := fs.Bool("triage", false, "print the corpus's triage cluster summary after the campaign (requires -corpus-dir)")
	liveEvents := fs.Bool("events", false, "stream structured progress events to stderr while running")
	jsonEvents := fs.Bool("events-json", false, "stream events to stdout as one JSON object per line (the report moves to stderr)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "p4fuzz: unexpected arguments %v\n", fs.Args())
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	mode := pickEventMode(*liveEvents, *jsonEvents)

	gcfg := gen.Config{
		MaxDepth:    *depth,
		MaxStmts:    *stmts,
		NumFields:   *fields,
		WithActions: true,
		Lattice:     *latSpec,
	}
	if err := gcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: %v\n", err)
		return 2
	}

	if *triageAfter && *corpusDir == "" {
		fmt.Fprintln(os.Stderr, "p4fuzz: -triage needs -corpus-dir (triage reads the persisted corpus)")
		return 2
	}

	opts := []repro.SessionOption{
		repro.WithSeed(*seed),
		repro.WithGenConfig(gcfg),
		repro.WithNIBudget(*trials, *trialsMax),
		repro.WithNIOracle(*niOracle),
		repro.WithExhaustBudget(*exhaustBudget, *exhaustProbes),
		repro.WithWorkers(*workers),
		repro.WithCorpus(*corpusDir),
		repro.WithLog(os.Stderr),
	}
	if *mutateSeeds {
		opts = append(opts, repro.WithMutation(0))
	}
	if *minimize {
		opts = append(opts, repro.WithMinimize())
	}
	s, err := repro.NewSession(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: %v\n", err)
		return 2
	}
	// The renderer is stopped — drained through op-end — before anything
	// prints, so the report (and the triage table) always follow the
	// stream rather than racing it.
	stop := watchEvents(s, mode)
	rep, err := s.Campaign(ctx, *n)
	var trep *repro.TriageReport
	var terr error
	if rep != nil && *triageAfter {
		// The summary covers the whole corpus the campaign just grew, so
		// the nightly log ends with what the findings mean: the ranked
		// (class, rule, shape) clusters and the seed-novelty standings.
		trep, terr = s.Triage()
	}
	stop()
	if rep == nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: campaign aborted after %v: %v\n", rep.Elapsed.Round(time.Millisecond), err)
	}
	fmt.Fprint(mode.reportWriter(), repro.FormatCampaignReport(rep))
	triageClean := true
	if *triageAfter {
		if terr != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", terr)
			return 2
		}
		fmt.Fprintln(mode.reportWriter())
		fmt.Fprint(mode.reportWriter(), repro.FormatTriageReport(trep))
		// A malformed corpus entry fails the run just as it fails
		// p4fuzz triage: a green job must mean the corpus is trustworthy.
		triageClean = trep.OK()
	}
	if !rep.OK() || !triageClean || err != nil {
		return 1
	}
	return 0
}

func replayMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz replay", flag.ExitOnError)
	trials := fs.Int("trials", 0, "base NI trials for findings recorded without a budget (0 = 4)")
	trialsMax := fs.Int("trials-max", 0, "adaptive NI ceiling for findings recorded without a budget (0 = 8x -trials, negative = flat)")
	liveEvents := fs.Bool("events", false, "stream structured progress events to stderr while running")
	jsonEvents := fs.Bool("events-json", false, "stream events to stdout as one JSON object per line (the report moves to stderr)")
	fs.Parse(args)
	dir, ok := corpusArg(fs, "testdata/regression-corpus")
	if !ok {
		return 2
	}
	mode := pickEventMode(*liveEvents, *jsonEvents)
	s, err := repro.NewSession(
		repro.WithCorpus(dir),
		repro.WithNIBudget(*trials, *trialsMax),
		repro.WithLog(os.Stderr),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: replay: %v\n", err)
		return 2
	}
	stop := watchEvents(s, mode)
	rep, err := s.Replay(context.Background())
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: replay: %v\n", err)
		return 2
	}
	fmt.Fprint(mode.reportWriter(), repro.FormatReplayReport(rep))
	if !rep.OK() {
		return 1
	}
	return 0
}

func retireMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz retire", flag.ExitOnError)
	promoteDir := fs.String("promote-dir", "", "retired-corpus directory (default <corpus>/../retired-corpus)")
	trials := fs.Int("trials", 0, "base NI trials for findings recorded without a budget (0 = 4)")
	trialsMax := fs.Int("trials-max", 0, "adaptive NI ceiling for findings recorded without a budget (0 = 8x -trials, negative = flat)")
	liveEvents := fs.Bool("events", false, "stream structured progress events to stderr while running")
	jsonEvents := fs.Bool("events-json", false, "stream events to stdout as one JSON object per line (the report moves to stderr)")
	fs.Parse(args)
	// No default corpus here, deliberately: retire deletes drifted entries
	// from the live corpus, and a bare `p4fuzz retire` must not clean the
	// checked-in regression seeds by accident.
	dir, ok := corpusArg(fs, "")
	if !ok {
		return 2
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "p4fuzz: retire needs an explicit corpus directory (it removes drifted findings)")
		return 2
	}
	mode := pickEventMode(*liveEvents, *jsonEvents)
	s, err := repro.NewSession(
		repro.WithCorpus(dir),
		repro.WithPromoteDir(*promoteDir),
		repro.WithNIBudget(*trials, *trialsMax),
		repro.WithLog(os.Stderr),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: retire: %v\n", err)
		return 2
	}
	stop := watchEvents(s, mode)
	rep, err := s.Retire(context.Background())
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: retire: %v\n", err)
		return 2
	}
	fmt.Fprint(mode.reportWriter(), repro.FormatRetireReport(rep))
	if !rep.OK() {
		return 1
	}
	return 0
}

func compactMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz compact", flag.ExitOnError)
	trials := fs.Int("trials", 0, "base NI trials for findings recorded without a budget (0 = 4)")
	trialsMax := fs.Int("trials-max", 0, "adaptive NI ceiling for findings recorded without a budget (0 = 8x -trials, negative = flat)")
	liveEvents := fs.Bool("events", false, "stream structured progress events to stderr while running")
	jsonEvents := fs.Bool("events-json", false, "stream events to stdout as one JSON object per line (the report moves to stderr)")
	fs.Parse(args)
	// Like retire: compact rewrites and removes corpus entries, so it never
	// defaults to the checked-in regression corpus.
	dir, ok := corpusArg(fs, "")
	if !ok {
		return 2
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "p4fuzz: compact needs an explicit corpus directory (it rewrites findings)")
		return 2
	}
	mode := pickEventMode(*liveEvents, *jsonEvents)
	s, err := repro.NewSession(
		repro.WithCorpus(dir),
		repro.WithNIBudget(*trials, *trialsMax),
		repro.WithLog(os.Stderr),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: compact: %v\n", err)
		return 2
	}
	stop := watchEvents(s, mode)
	rep, err := s.Compact(context.Background())
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: compact: %v\n", err)
		return 2
	}
	fmt.Fprint(mode.reportWriter(), repro.FormatCompactReport(rep))
	if !rep.OK() {
		return 1
	}
	return 0
}

// indexMain opens the corpus — rebuilding and persisting its index when
// missing or stale — and prints the index-derived statistics as JSON.
// CI's round-trip gate deletes the index, reruns this, and compares.
func indexMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz index", flag.ExitOnError)
	outPath := fs.String("o", "", "write the stats JSON to this file instead of stdout")
	fs.Parse(args)
	dir, ok := corpusArg(fs, "testdata/regression-corpus")
	if !ok {
		return 2
	}
	c, err := repro.OpenCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: index: %v\n", err)
		return 2
	}
	out, err := json.MarshalIndent(c.Stats(), "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: index: %v\n", err)
		return 2
	}
	out = append(out, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: index: %v\n", err)
			return 2
		}
	} else {
		os.Stdout.Write(out)
	}
	return 0
}

func triageMain(args []string) int {
	fs := flag.NewFlagSet("p4fuzz triage", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	novelty := fs.Int("novelty", 10, "max seeds in the novelty ranking (-1 = unlimited)")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	liveEvents := fs.Bool("events", false, "stream structured progress events to stderr while running")
	jsonEvents := fs.Bool("events-json", false, "stream events to stdout as one JSON object per line (the report moves to stderr)")
	diff := fs.Bool("diff", false, "compare two JSON reports (OLD.json NEW.json) instead of triaging a corpus")
	md := fs.Bool("md", false, "with -diff, render the diff as Markdown (for CI job summaries)")
	fs.Parse(args)
	if *diff {
		return triageDiff(fs.Args(), *md, *outPath)
	}
	dir, ok := corpusArg(fs, "testdata/regression-corpus")
	if !ok {
		return 2
	}
	return triageReport(dir, *asJSON, *novelty, *outPath, pickEventMode(*liveEvents, *jsonEvents))
}

// triageReport renders one corpus's triage report.
func triageReport(dir string, asJSON bool, novelty int, outPath string, mode eventMode) int {
	s, err := repro.NewSession(
		repro.WithCorpus(dir),
		repro.WithMaxNovelty(novelty),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
		return 2
	}
	stop := watchEvents(s, mode)
	rep, err := s.Triage()
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
		return 2
	}
	var out []byte
	if asJSON {
		if out, err = repro.MarshalTriageReport(rep); err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
			return 2
		}
	} else {
		out = []byte(repro.FormatTriageReport(rep))
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
			return 2
		}
	} else {
		mode.reportWriter().Write(out)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

// triageDiff loads two JSON triage reports and prints their cluster-level
// diff.
func triageDiff(args []string, md bool, outPath string) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "p4fuzz: triage -diff wants exactly two report files (old.json new.json), got %d\n", len(args))
		return 2
	}
	reports := make([]*repro.TriageReport, 2)
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
			return 2
		}
		if reports[i], err = repro.UnmarshalTriageReport(raw); err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzz: triage: %s: %v\n", path, err)
			return 2
		}
	}
	d := repro.DiffTriageReports(reports[0], reports[1])
	out := repro.FormatTriageDiff(d)
	if md {
		out = repro.MarkdownTriageDiff(d)
	}
	if outPath == "" {
		os.Stdout.WriteString(out)
		return 0
	}
	if err := os.WriteFile(outPath, []byte(out), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzz: triage: %v\n", err)
		return 2
	}
	return 0
}
