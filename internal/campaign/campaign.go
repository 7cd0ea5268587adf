// Package campaign is the differential soundness-fuzzing engine: it
// generates programs, runs each through internal/pipeline, and classifies
// the result with difftest.Classify, cross-checking the IFC checker, the
// baseline checker, and the NI oracle. A campaign
//
//   - generates jobs lazily and feeds them through pipeline.RunStream, so
//     memory is bounded by the worker pool, not the campaign length;
//   - deduplicates interesting programs (soundness findings, precision
//     findings, parser roundtrip disagreements) and, given a corpus
//     directory, persists them with verdict metadata, so findings survive
//     the process and accumulate across runs — without one it keeps them
//     in memory;
//   - optionally minimizes each finding with internal/shrink before
//     persisting, so corpus entries are the smallest programs that still
//     reproduce their verdict class — and families of equivalent findings
//     collapse onto one entry; after the stream drains, the run's workers
//     shrink findings concurrently while the calling goroutine commits
//     them in global-index order, so the corpus and report do not depend
//     on the worker count;
//   - covers exactly one window [Lo, Hi) of global campaign indices, each
//     index generating its program from Seed+index, so runs over disjoint
//     windows partition a campaign deterministically: the union of the
//     windows equals one run over their span. internal/fleet leases
//     windows to workers and tracks the search frontier across runs;
//   - spends its NI-trial budget adaptively (pipeline.Budget.TrialsMax):
//     few trials on IFC-accepted programs, escalating on rejected ones
//     where an interference witness would settle rejected-clean vs
//     rejected-witnessed;
//   - optionally closes the coverage-guided loop (Spec.Mutate): the
//     persisted corpus becomes the seed pool, and a configurable share of
//     jobs are internal/mutate variants of previous findings — weighted by
//     verdict class and recency — instead of fresh gen.Random samples;
//   - campaigns over any stock lattice (Spec.Gen.Lattice), so chain-N
//     and n-party searches reach label flows two-point programs cannot
//     express;
//   - doubles as a regression suite: Replay re-checks every persisted
//     finding against the current checker stack and reports any verdict
//     drift.
//
// Verdict classes and the soundness argument are difftest's; the campaign
// adds one class of its own, parser disagreements (parse → print → reparse
// is not a fixed point), which cross-checks the frontend the same way NI
// cross-checks the checker.
package campaign

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/eval"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/mutate"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/shrink"
)

// Class names a corpus finding class; it prefixes corpus filenames.
type Class = corpus.Class

// Corpus classes: difftest's interesting verdicts plus the campaign's own
// parser-disagreement check.
const (
	ClassSoundnessViolation Class = "soundness-violation"
	ClassGeneratorBug       Class = "generator-bug"
	ClassRuntimeError       Class = "runtime-error"
	// ClassRejectedClean is the precision class: IFC-rejected,
	// baseline-accepted, and no interference witness over an escalated
	// trial budget — each entry is a candidate conservative rejection.
	ClassRejectedClean Class = "rejected-clean"
	// ClassProvedImprecise is the precision class with proof, produced
	// only under the exhaustive NI oracle: IFC-rejected, but enumeration
	// covered the entire public × secret input space at every observer
	// and certified the program non-interfering, so the rejection is
	// definitely conservative — the checker's true imprecision frontier.
	ClassProvedImprecise Class = "proved-imprecise"
	// ClassSecretExhausted is the probe-mode certification: every secret
	// assignment enumerated clean, but only at sampled public probes
	// (the public side exceeded the budget — the common case for
	// generated programs). Strong evidence of conservatism, weaker than
	// proved-imprecise: a leak at an unprobed public state is not
	// excluded.
	ClassSecretExhausted Class = "secret-exhaustive"
	// ClassUnderTested is the residue of the split: IFC-rejected, no
	// witness, and the exhaustive oracle could not enumerate (width
	// budget, int-typed secrets, ...) — still ambiguous between
	// imprecision and a missed leak.
	ClassUnderTested Class = "under-tested"
	// ClassParserDisagreement marks programs whose parse → print →
	// reparse roundtrip is not a fixed point.
	ClassParserDisagreement Class = "parser-disagreement"
)

// Retired-corpus classes: campaigns never persist these, but retiring a
// drifted finding (internal/triage) re-records it under the class the
// *current* stack assigns, so the retired entry guards the fix — if the
// old defect returns, the re-recorded class drifts and replay goes red.
// Replay understands all three.
const (
	// ClassSound marks a retired entry that now IFC-accepts and runs NI-clean.
	ClassSound Class = "sound"
	// ClassRejectedWitnessed marks a retired rejected-clean entry whose
	// rejection now has an interference witness (a true positive after all).
	ClassRejectedWitnessed Class = "rejected-witnessed"
	// ClassRoundtripClean marks a retired parser-disagreement entry whose
	// parse → print → reparse is now a fixed point.
	ClassRoundtripClean Class = "roundtrip-clean"
)

// classOf maps a difftest verdict to its corpus class, if persisted.
func classOf(v difftest.Verdict) (Class, bool) {
	switch v {
	case difftest.SoundnessViolation:
		return ClassSoundnessViolation, true
	case difftest.GeneratorBug:
		return ClassGeneratorBug, true
	case difftest.RuntimeError:
		return ClassRuntimeError, true
	case difftest.RejectedClean:
		return ClassRejectedClean, true
	case difftest.ProvedImprecise:
		return ClassProvedImprecise, true
	case difftest.SecretExhausted:
		return ClassSecretExhausted, true
	case difftest.UnderTested:
		return ClassUnderTested, true
	}
	return "", false
}

// Window is a global-index window [Lo, Hi): the indices one campaign run
// covers, at stride 1. A fleet coordinator leases windows to workers; a
// Session campaign of n programs is the window [0, n).
type Window struct {
	Lo, Hi int64
}

// Spec is a campaign's parameters: what each global index generates and
// how its program is judged. A Session, a fleet manifest and a campaign
// run pass this one value; the JSON tags are the fleet manifest's.
type Spec struct {
	// Seed is the campaign seed: global index i generates its program
	// from Seed+i and seeds its NI experiment with Seed+i, independent of
	// the window boundaries and worker interleaving.
	Seed int64 `json:"seed"`
	// Gen configures the program generator (zero = gen.DefaultConfig).
	Gen gen.Config `json:"gen"`
	// Budget is the NI budget and backend (see pipeline.Budget; the zero
	// value is the adaptive oracle at 4 trials escalating to 32). The
	// oracle and the exhaustive oracle's settings are recorded in each
	// finding's Meta so replay re-checks under the same oracle; the
	// "exhaustive" oracle splits the rejected-clean precision class into
	// proved-imprecise/secret-exhaustive/under-tested.
	pipeline.Budget
	// Mutate enables corpus-seeded mutation: a MutateFrac share of the
	// campaign's jobs are AST-level mutants of persisted findings (drawn
	// from the seed pool weighted by verdict class and recency) instead of
	// fresh gen.Random output. Scheduling is deterministic per global
	// index given the pool, so window runs stay partition-exact when they
	// share a corpus snapshot. With an empty corpus the campaign
	// simply generates everything fresh.
	Mutate bool `json:"mutate,omitempty"`
	// MutateFrac is the fraction of jobs mutated from seeds when Mutate is
	// set (0 = default 0.5; must be in (0, 1]).
	MutateFrac float64 `json:"mutate_frac,omitempty"`
	// Minimize shrinks each finding to the smallest program reproducing
	// its class before dedup and persistence.
	Minimize bool `json:"minimize,omitempty"`
	// MaxPerClass caps findings *processed* per class per run — counted
	// before minimization and dedup, so it bounds both corpus growth and
	// the per-run shrinking bill even once the corpus is saturated and
	// most findings dedup to known entries (default 25; negative =
	// unlimited). A full class keeps its MaxPerClass lowest global
	// indices, so which findings a run processes does not depend on the
	// order its workers finish jobs in. Skipped findings are counted, not
	// silently dropped; later windows cover fresh indices, so capped
	// classes drain over time.
	MaxPerClass int `json:"max_per_class,omitempty"`
}

// Resolved returns s with every default applied: the default generator,
// the resolved NI budget, MutateFrac 0.5 and MaxPerClass 25.
func (s Spec) Resolved() Spec {
	if s.Gen == (gen.Config{}) {
		s.Gen = gen.DefaultConfig()
	}
	s.Budget = s.Budget.Resolved()
	if s.MutateFrac == 0 {
		s.MutateFrac = 0.5
	}
	if s.MaxPerClass == 0 {
		s.MaxPerClass = 25
	}
	return s
}

// Config configures a campaign run: a window, the campaign's Spec, and
// the run's own resources.
type Config struct {
	// Window is the global-index window the run covers. Required and
	// non-empty.
	Window Window
	Spec
	// Workers bounds the pipeline worker pool and, once the stream has
	// drained, how many findings minimize at once (<= 0 = GOMAXPROCS).
	Workers int
	// CorpusDir is the persistent corpus directory ("" = keep findings in
	// memory only).
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the run
	// reads and writes through it (sharing its caches and dedup map)
	// instead of opening the directory again. Session threads one handle
	// through every operation this way. CorpusDir defaults to the handle's
	// directory; the novelty file lives relative to it.
	Corpus *corpus.Corpus
	// Log receives one line per persisted finding (nil = discard).
	Log io.Writer
	// Events receives the run's structured event stream: job-done and
	// progress while the analysis stream runs, then one finding event per
	// new finding as the post-stream finalize phase minimizes and
	// persists it (finding events therefore trail the job-done event of
	// the job that produced them — minimization is deferred so it cannot
	// park the worker pool). nil discards. Events are emitted
	// synchronously, so sinks must be fast and non-blocking — the
	// Session layer's buffered fan-out is the intended consumer. Finding
	// events, like the rest, come from the goroutine that called Run, in
	// global-index order, although findings minimize concurrently; sinks
	// need no locking of their own.
	Events events.Sink
	// Metrics, when non-nil, receives the run's telemetry — job, verdict,
	// finding, dedup, and seed-draw counters, a corpus-size gauge, and
	// (threaded into the pipeline) per-stage duration histograms — and
	// makes progress ticks carry jobs/sec / findings/sec rates plus
	// periodic KindMetrics snapshot events.
	Metrics *metrics.Registry
}

// Finding is one interesting program collected by the campaign.
type Finding struct {
	Class   Class
	Verdict difftest.Verdict
	// Index is the global campaign index; GenSeed = Seed + Index
	// regenerates the original program (when Origin is "gen"), NISeed
	// replays its experiment.
	Index   int64
	GenSeed int64
	NISeed  int64
	// Origin is "gen" or "mutate"; ParentKey names the corpus seed a
	// mutant came from.
	Origin    string
	ParentKey string
	// Rule is the typing rule the IFC checker cited on rejection ("" when
	// the finding class involves no IFC rejection).
	Rule string
	// Detail is the witness, error text, or disagreement description.
	Detail string
	// Source is the finding as persisted — minimized when Minimize was on
	// and shrinking made progress.
	Source string
	// OriginalBytes is len of the generated source before minimization.
	OriginalBytes int
	// Minimized reports that Source is strictly smaller than the input.
	Minimized bool
	// Key is the dedup key; Path is the corpus file ("" if not persisted).
	Key  string
	Path string
}

// Report is the campaign outcome.
type Report struct {
	// Counts has one entry per difftest verdict class.
	Counts [difftest.NumVerdicts]int
	// ParserDisagreements counts parse→print→reparse mismatches (also
	// collected as findings).
	ParserDisagreements int
	// RulesCited counts, per typing rule, how many rejections cited it.
	RulesCited map[string]int
	// Analyzed is the number of programs this run analyzed.
	Analyzed int
	// Window echoes the run's global-index window.
	Window Window
	// New, Dup, Known, and Capped partition the findings encountered:
	// newly persisted/collected; duplicates of one found earlier in this
	// run; already present in the corpus from an earlier run; skipped by
	// the per-class cap.
	NewFindings, DupFindings, KnownFindings, CappedFindings int
	// Minimized counts findings the shrinker strictly reduced;
	// BytesSaved totals the reduction.
	Minimized  int
	BytesSaved int
	// MutantJobs counts analyzed jobs produced by mutation (the rest were
	// freshly generated); SeedPoolSize is the corpus seed pool the run
	// started with. Both are zero when Mutate is off.
	MutantJobs   int
	SeedPoolSize int
	// TrialsRun totals NI trials; the adaptive budget shows up here.
	TrialsRun int64
	// Elapsed and Workers describe the run; Seed and Gen echo config.
	Elapsed time.Duration
	Workers int
	Seed    int64
	Gen     gen.Config
	// Aborted reports mid-run cancellation (re-running the window
	// re-covers it and dedup absorbs repeats).
	Aborted bool
	// CorpusDir echoes the corpus location ("" = none).
	CorpusDir string
	// Findings holds the new findings of this run, in global-index order.
	Findings []Finding
}

// OK reports whether the campaign found no implementation defects: no
// soundness violations, generator bugs, runtime errors, or parser
// disagreements. Precision findings (rejected-clean) are data, not
// defects.
func (r *Report) OK() bool {
	return r.Counts[difftest.SoundnessViolation] == 0 &&
		r.Counts[difftest.GeneratorBug] == 0 &&
		r.Counts[difftest.RuntimeError] == 0 &&
		r.ParserDisagreements == 0
}

// engine carries one run's wiring. Its cfg has the Spec's defaults
// applied.
type engine struct {
	ctx  context.Context
	cfg  Config
	lat  lattice.Lattice
	corp *corpus.Corpus
	pool *seedPool
	seen map[string]bool
	log  io.Writer
	sink events.Sink
	// jobs is how many indices the window covers; tickEvery spaces the
	// progress-tick events (deterministic in the job count).
	jobs      int
	tickEvery int
	rep       *Report
	// pending holds, per class, the findings collected for the post-stream
	// finalize phase — at most MaxPerClass of them, the class's lowest global
	// indices; npending counts them across classes.
	pending  map[Class][]pendingFinding
	npending int
	// novelty accumulates this run's per-parent-seed productivity deltas
	// (mutants analyzed, new keys persisted), merged into the corpus
	// novelty file at the end of the run. credited marks job indices
	// whose parent already received a NewKeys credit: one mutant job can
	// surface two findings (a verdict class and a parser disagreement),
	// but it is one mutant, so it earns at most one credit — keeping
	// NewKeys <= Mutants per seed.
	novelty  map[string]NoveltyStat
	credited map[int64]bool

	// metric handles, cached once per run; all nil (and no-op) when the
	// config carries no registry. start anchors the rate computations.
	met        *metrics.Registry
	start      time.Time
	mJobs      *metrics.Counter
	mVerdicts  [difftest.NumVerdicts]*metrics.Counter
	mDedup     *metrics.Counter
	mSeedDraws *metrics.Counter
	mCorpus    *metrics.Gauge
	// mStream and mFinalize time the run's two phases: the analysis
	// stream, and everything after it drains (minimize, persist, save).
	mStream, mFinalize *metrics.Histogram

	// prov records mutant provenance by global index, written by the job
	// producer and read by the result consumer (concurrent goroutines).
	// Only mutant indices have entries.
	provMu sync.Mutex
	prov   map[int64]provenance
}

// provenance is where one mutant job came from.
type provenance struct {
	parentKey string
	ops       string
}

// pendingFinding is one interesting program noted during the stream.
// Minimization and persistence run after the stream drains: shrinking a
// finding replays hundreds of candidate programs, and doing that inside
// the single result consumer would park every pipeline worker on the
// unbuffered stream channel for the duration. Once the stream is done the
// freed workers shrink pending findings concurrently (see finalize).
type pendingFinding struct {
	class   Class
	verdict difftest.Verdict
	detail  string
	name    string
	source  string
	idx     int64
	origin  string // "gen" or "mutate"
	parent  string // dedup key of the mutated seed, for mutants
	ops     string // comma-joined mutation operators, for mutants
	rule    string // typing rule cited by the IFC rejection, if any
}

// Run executes one campaign run over cfg.Window. The returned error is a
// configuration, corpus-I/O, or context failure; oracle disagreements are
// reported in the Report, not as errors.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	win := cfg.Window
	if win.Lo < 0 || win.Hi <= win.Lo {
		return nil, fmt.Errorf("campaign: window [%d, %d) is empty or inverted", win.Lo, win.Hi)
	}
	if cfg.Corpus != nil && cfg.CorpusDir == "" {
		cfg.CorpusDir = cfg.Corpus.Dir() // the novelty file lives beside findings/
	}
	if cfg.MutateFrac < 0 || cfg.MutateFrac > 1 {
		return nil, fmt.Errorf("campaign: MutateFrac %v out of [0, 1] (0 = the default 0.5)", cfg.MutateFrac)
	}
	cfg.Spec = cfg.Spec.Resolved()
	e := &engine{
		ctx:      ctx,
		cfg:      cfg,
		seen:     map[string]bool{},
		log:      cfg.Log,
		sink:     cfg.Events,
		jobs:     int(win.Hi - win.Lo),
		pending:  map[Class][]pendingFinding{},
		prov:     map[int64]provenance{},
		novelty:  map[string]NoveltyStat{},
		credited: map[int64]bool{},
	}
	// Cache the run's metric handles (nil-and-no-op without a registry)
	// and pre-register every known series at zero, so a snapshot's series
	// set is deterministic — present from the first scrape, not from the
	// first event that would have created it.
	e.met = cfg.Metrics
	e.mJobs = e.met.Counter("campaign_jobs_total")
	for v := difftest.Verdict(0); v < difftest.NumVerdicts; v++ {
		e.mVerdicts[v] = e.met.Counter("campaign_verdicts_total", "class", v.String())
	}
	for _, c := range []Class{ClassSoundnessViolation, ClassGeneratorBug,
		ClassRuntimeError, ClassRejectedClean, ClassProvedImprecise,
		ClassSecretExhausted, ClassUnderTested, ClassParserDisagreement} {
		e.met.Counter("campaign_findings_total", "class", string(c))
	}
	e.mDedup = e.met.Counter("campaign_dedup_hits_total")
	e.mSeedDraws = e.met.Counter("campaign_seed_pool_draws_total")
	e.mCorpus = e.met.Gauge("campaign_corpus_size")
	e.mStream = e.met.Histogram("campaign_phase_seconds", metrics.DurationBuckets, "phase", "stream")
	e.mFinalize = e.met.Histogram("campaign_phase_seconds", metrics.DurationBuckets, "phase", "finalize")
	var err error
	if e.lat, err = cfg.Gen.ResolveLattice(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if e.log == nil {
		e.log = io.Discard
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	e.corp = cfg.Corpus
	if e.corp == nil && cfg.CorpusDir != "" {
		if e.corp, err = corpus.OpenSink(cfg.CorpusDir, cfg.Events); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	if cfg.Mutate {
		if e.pool, err = loadSeedPool(e.corp, e.lat); err != nil {
			return nil, fmt.Errorf("campaign: seed pool: %w", err)
		}
	}
	e.rep = &Report{
		RulesCited: map[string]int{},
		Window:     win,
		Workers:    workers,
		Seed:       cfg.Seed,
		Gen:        cfg.Gen,
		CorpusDir:  cfg.CorpusDir,
	}
	if e.pool != nil {
		e.rep.SeedPoolSize = e.pool.size()
	}
	// Progress ticks land every ~5% of the window's jobs (at least every
	// job on tiny runs), so a listener renders a steady bar without the
	// engine emitting one tick per program on top of the job-done events.
	e.tickEvery = e.jobs / 20
	if e.tickEvery < 1 {
		e.tickEvery = 1
	}
	start := time.Now()
	e.start = start
	if e.corp != nil {
		e.mCorpus.SetInt(int64(e.corp.Len()))
	}

	// One queued job per worker: a worker that finishes takes its next
	// job from the buffer instead of waiting out the producer's
	// generation or mutation of it.
	jobs := make(chan pipeline.Job, workers)
	go func() {
		defer close(jobs)
		var src eval.Source
		rng := rand.New(&src)
		for idx := win.Lo; idx < win.Hi; idx++ {
			job := pipeline.Job{
				Name:   fmt.Sprintf("fuzz-%d.p4", idx),
				Source: e.jobSource(rng, idx),
				Lat:    e.lat,
				Seq:    idx,
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				return
			}
		}
	}()

	results := pipeline.RunStream(ctx, jobs, pipeline.Options{
		Workers: workers,
		NI:      pipeline.NIAll,
		Budget:  cfg.Budget,
		NISeed:  cfg.Seed,
		Metrics: cfg.Metrics,
	})
	for r := range results {
		e.consume(&r)
	}
	aborted := ctx.Err() != nil
	streamed := time.Now()
	e.mStream.ObserveDuration(streamed.Sub(start))
	// Minimization stops with the context, but collected findings are
	// still persisted so an interrupted run loses nothing.
	e.finalize(e.pendingByIndex(), workers)
	if e.corp != nil {
		// Novelty deltas persist even on abort, like the findings above: an
		// interrupted run's mutant outcomes are real coverage evidence. A
		// save failure costs feedback quality, not findings — log and go on.
		if err := saveNoveltyDeltas(cfg.CorpusDir, e.novelty); err != nil {
			fmt.Fprintf(e.log, "campaign: %v (novelty feedback lost for this run)\n", err)
		}
		// Likewise the corpus index: a failed save costs the next Open a
		// rescan, never a finding.
		if err := e.corp.SaveIndex(); err != nil {
			fmt.Fprintf(e.log, "campaign: %v (index rebuilt on next open)\n", err)
		}
		e.mCorpus.SetInt(int64(e.corp.Len()))
	}
	e.mFinalize.ObserveDuration(time.Since(streamed))
	// A final snapshot after the finalize phase, so the run's last
	// KindMetrics event reflects its findings — the stream's periodic
	// snapshots predate finalization and cannot.
	e.emitMetrics()
	e.rep.Elapsed = time.Since(start)

	if aborted {
		e.rep.Aborted = true
		return e.rep, ctx.Err()
	}
	return e.rep, nil
}

// jobSource produces the program for one global campaign index: a mutant
// of a weighted corpus seed when mutation is on and the index's own rng
// says so, a fresh gen.Random program otherwise. Everything — the
// mutate-or-generate coin, the seed draw, the mutation operators, and the
// fallback generation — runs off rng reseeded to Seed+idx, so the mapping
// from index to program depends only on (Seed, Gen, pool): window runs
// agree on it whenever they share a corpus snapshot, and a failed
// mutation falls back to generation deterministically. rng is the
// producer's own rand.Rand over an eval.Source, which draws exactly what
// rand.NewSource(Seed+idx) would without allocating a source per job.
func (e *engine) jobSource(rng *rand.Rand, idx int64) string {
	rng.Seed(e.cfg.Seed + idx)
	if e.cfg.Mutate && e.pool != nil && e.pool.size() > 0 {
		if rng.Float64() < e.cfg.MutateFrac {
			seed := e.pool.pick(rng)
			e.mSeedDraws.Inc()
			var donor *mutate.Seed
			if e.pool.size() > 1 && rng.Intn(4) == 0 {
				donor = e.pool.pick(rng).mutationSeed()
				e.mSeedDraws.Inc()
			}
			// An unparseable seed (e.g. a generator-bug entry) or one with
			// no valid mutant costs one index of mutation, not the
			// campaign: fall through to generation.
			if ms := seed.mutationSeed(); ms != nil {
				if res, err := ms.Mutate(rng, e.lat, donor); err == nil {
					e.provMu.Lock()
					e.prov[idx] = provenance{parentKey: seed.key, ops: strings.Join(res.Ops, ",")}
					e.provMu.Unlock()
					return res.Source
				}
			}
		}
	}
	return gen.Random(rng, e.cfg.Gen)
}

// emitMetrics ships one KindMetrics snapshot event; no-op without a
// registry.
func (e *engine) emitMetrics() {
	if e.met == nil {
		return
	}
	snap := e.met.Snapshot()
	e.sink.Emit(events.Event{Kind: events.KindMetrics, Op: "campaign", Snapshot: &snap})
}

// provenanceOf pops the recorded provenance for one index (zero value for
// fresh jobs).
func (e *engine) provenanceOf(idx int64) (provenance, bool) {
	e.provMu.Lock()
	defer e.provMu.Unlock()
	p, ok := e.prov[idx]
	if ok {
		delete(e.prov, idx)
	}
	return p, ok
}

// consume classifies one streamed result and routes its findings.
func (e *engine) consume(r *pipeline.JobResult) {
	e.rep.Analyzed++
	e.rep.TrialsRun += int64(r.NITrialsRun)
	e.mJobs.Inc()
	prov, mutant := e.provenanceOf(r.Job.Seq)
	if mutant {
		e.rep.MutantJobs++
		st := e.novelty[prov.parentKey]
		st.Mutants++
		e.novelty[prov.parentKey] = st
	}
	v, detail := difftest.Classify(r)
	e.rep.Counts[v]++
	e.mVerdicts[v].Inc()
	rule := r.CitedRule()
	e.sink.Emit(events.Event{
		Kind: events.KindJobDone, Op: "campaign",
		Index: r.Job.Seq, Class: v.String(), Rule: rule,
	})
	if e.rep.Analyzed%e.tickEvery == 0 || e.rep.Analyzed == e.jobs {
		ev := events.Event{
			Kind: events.KindProgress, Op: "campaign",
			Done: e.rep.Analyzed, Total: e.jobs,
		}
		if e.met != nil {
			// Rates come from the registry's job counter and the live
			// finding count (persisted findings trail the stream in the
			// finalize phase, so pending ones count too — otherwise
			// findings/sec would read 0 for the whole run).
			if elapsed := time.Since(e.start).Seconds(); elapsed > 0 {
				ev.JobsPerSec = float64(e.mJobs.Value()) / elapsed
				ev.FindingsPerSec = float64(e.rep.NewFindings+e.npending) / elapsed
			}
			e.emitMetrics()
		}
		e.sink.Emit(ev)
	}
	if r.IFC != nil && !r.IFC.OK {
		for _, d := range r.IFC.Diags {
			if d.Rule != "" {
				e.rep.RulesCited[d.Rule]++
			}
		}
		if detail == "" && len(r.IFC.Diags) > 0 {
			// RejectedClean carries no witness; cite the rejection itself.
			detail = r.IFC.Diags[0].Error()
		}
	}
	if class, interesting := classOf(v); interesting {
		e.collect(class, v, detail, rule, r, prov, mutant)
	}
	if r.Prog != nil {
		if detail, bad := roundtripDisagreement(r.Job.Name, r.Job.Source, r.Prog); bad {
			e.rep.ParserDisagreements++
			// The roundtrip defect is a frontend matter; the IFC rule (if
			// any) belongs to the verdict finding, not this one.
			e.collect(ClassParserDisagreement, v, detail, "", r, prov, mutant)
		}
	}
}

// collect notes one interesting program for post-stream processing,
// charging the per-class cap up front so both pending memory and the
// later shrinking bill stay bounded.
func (e *engine) collect(class Class, v difftest.Verdict, detail, rule string, r *pipeline.JobResult, prov provenance, mutant bool) {
	origin := "gen"
	if mutant {
		origin = "mutate"
	}
	p := pendingFinding{
		class:   class,
		verdict: v,
		detail:  detail,
		name:    r.Job.Name,
		source:  r.Job.Source,
		idx:     r.Job.Seq,
		origin:  origin,
		parent:  prov.parentKey,
		ops:     prov.ops,
		rule:    rule,
	}
	// The cap meters work, not persistence: dedup runs after (expensive)
	// minimization, so counting only new findings would let a saturated
	// corpus — where nearly everything minimizes onto a known entry —
	// grow the per-run shrinking bill without bound.
	kept := e.pending[class]
	if e.cfg.MaxPerClass < 0 || len(kept) < e.cfg.MaxPerClass {
		e.pending[class] = append(kept, p)
		e.npending++
		return
	}
	// The class is full. It keeps its lowest global indices, whatever
	// order the workers finished the jobs in: the newcomer replaces the
	// highest kept index if it is lower, and either way one finding is
	// charged to the cap.
	e.rep.CappedFindings++
	hi := 0
	for i := range kept {
		if kept[i].idx > kept[hi].idx {
			hi = i
		}
	}
	if p.idx < kept[hi].idx {
		kept[hi] = p
	}
}

// pendingByIndex returns the collected findings in global-index order, so
// dedup, minimization, and Report.Findings are independent of
// scheduling. One job can yield two findings (a verdict class and a
// parser disagreement); the class breaks the tie.
func (e *engine) pendingByIndex() []pendingFinding {
	all := make([]pendingFinding, 0, e.npending)
	for _, ps := range e.pending {
		all = append(all, ps...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].idx != all[j].idx {
			return all[i].idx < all[j].idx
		}
		return all[i].class < all[j].class
	})
	return all
}

// finalize minimizes the collected findings, taken in index order, on up
// to workers goroutines, and commits each one from the calling goroutine
// as soon as it and every finding before it are minimized. Dedup, the
// corpus, the report, the log and the event stream therefore come out
// exactly as one goroutine working through ps would leave them, and the
// first finding commits right after its own shrink. The pool is joined
// before finalize returns.
func (e *engine) finalize(ps []pendingFinding, workers int) {
	minimized := make([]chan Finding, len(ps))
	for i := range minimized {
		minimized[i] = make(chan Finding, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(ps)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ps)); i = next.Add(1) - 1 {
				minimized[i] <- e.minimize(ps[i])
			}
		}()
	}
	for i, p := range ps {
		e.commit(p, <-minimized[i])
	}
	wg.Wait()
}

// minimize builds the finding for one collected program, shrunk when
// Spec.Minimize is set. It reads only the run's fixed configuration, so
// any number of calls may run at once. Cancellation must not sit in a
// delta-debug loop: once the context is done no shrink starts and those
// in flight stop (see keepClass), so the finding keeps the source it has.
func (e *engine) minimize(p pendingFinding) Finding {
	f := Finding{
		Class:         p.class,
		Verdict:       p.verdict,
		Index:         p.idx,
		GenSeed:       e.cfg.Seed + p.idx,
		NISeed:        e.cfg.Seed + p.idx,
		Origin:        p.origin,
		ParentKey:     p.parent,
		Rule:          p.rule,
		Detail:        p.detail,
		Source:        p.source,
		OriginalBytes: len(p.source),
	}
	if e.cfg.Minimize && e.ctx.Err() == nil {
		if res, err := shrink.Minimize(p.name, f.Source, e.keepClass(p.class, p.verdict, p.idx)); err == nil {
			f.Minimized = len(res.Source) < len(f.Source)
			f.Source = res.Source
		}
	}
	return f
}

// commit deduplicates and persists one minimized finding and reports it.
func (e *engine) commit(p pendingFinding, f Finding) {
	class, idx := p.class, p.idx
	if f.Minimized {
		e.rep.Minimized++
		e.rep.BytesSaved += f.OriginalBytes - len(f.Source)
	}
	f.Key = corpus.DedupKey(class, f.Source)
	switch {
	case e.seen[f.Key]:
		e.rep.DupFindings++
		e.mDedup.Inc()
		return
	case e.corp.Has(f.Key):
		e.seen[f.Key] = true
		e.rep.KnownFindings++
		e.mDedup.Inc()
		return
	}
	e.seen[f.Key] = true
	if e.corp != nil {
		path, err := e.corp.Put(corpus.Meta{
			Class:         class,
			Rule:          p.rule,
			Detail:        p.detail,
			Index:         idx,
			GenSeed:       f.GenSeed,
			NISeed:        f.NISeed,
			NITrials:      e.cfg.Trials,
			NITrialsMax:   e.cfg.TrialsMax,
			NIOracle:      e.cfg.Oracle,
			ExhaustBudget: e.cfg.ExhaustBudget,
			ExhaustProbes: e.cfg.ExhaustProbes,
			Gen:           e.cfg.Gen,
			Origin:        p.origin,
			ParentKey:     p.parent,
			MutateOps:     p.ops,
			OriginalBytes: f.OriginalBytes,
			Bytes:         len(f.Source),
			Minimized:     f.Minimized,
			Key:           f.Key,
			FoundAt:       time.Now(),
		}, f.Source)
		if err != nil {
			// Persistence failure must not lose the finding; keep it in
			// the report and say so.
			fmt.Fprintf(e.log, "campaign: %v (finding kept in memory)\n", err)
		} else {
			f.Path = path
		}
	}
	if p.parent != "" && !e.credited[p.idx] {
		// A mutant that landed as a new dedup key is the scheduler's
		// coverage signal: credit the parent seed, once per mutant job.
		e.credited[p.idx] = true
		st := e.novelty[p.parent]
		st.NewKeys++
		st.LastNewAt = time.Now()
		e.novelty[p.parent] = st
	}
	e.rep.NewFindings++
	e.met.Counter("campaign_findings_total", "class", string(class)).Inc()
	e.rep.Findings = append(e.rep.Findings, f)
	e.sink.Emit(events.Event{
		Kind: events.KindFinding, Op: "campaign",
		Index: idx, Class: string(class), Rule: p.rule,
		Detail: p.detail, Key: f.Key, Path: f.Path,
	})
	fmt.Fprintf(e.log, "finding: %s (index %d, %d bytes%s): %s\n",
		class, idx, len(f.Source), minimizedTag(f), p.detail)
}

func minimizedTag(f Finding) string {
	if !f.Minimized {
		return ""
	}
	return fmt.Sprintf(", minimized from %d", f.OriginalBytes)
}

// keepClass is the shrinker predicate: the candidate must land in the same
// corpus class as the original finding. Once the run's context is done it
// rejects every candidate, so a cancel stops the shrinks in flight.
func (e *engine) keepClass(class Class, v difftest.Verdict, idx int64) shrink.Keep {
	if class == ClassParserDisagreement {
		return func(cand string) bool {
			if e.ctx.Err() != nil {
				return false // as pipeline.Run below fails on a done context
			}
			prog, err := parser.Parse("cand.p4", cand)
			if err != nil {
				return false
			}
			_, bad := roundtripDisagreement("cand.p4", cand, prog)
			return bad
		}
	}
	return func(cand string) bool {
		sum, err := pipeline.Run(e.ctx, []pipeline.Job{{Name: "cand.p4", Source: cand, Lat: e.lat}}, pipeline.Options{
			Workers: 1,
			NI:      pipeline.NIAll,
			Budget:  e.cfg.Budget,     // class must be judged under the same oracle
			NISeed:  e.cfg.Seed + idx, // same NI randomness as the original job
			Metrics: e.met,            // shrink replays are real pipeline work
		})
		if err != nil || len(sum.Results) != 1 {
			return false
		}
		got, _ := difftest.Classify(&sum.Results[0])
		return got == v
	}
}

// roundtripDisagreement checks that parse → print → reparse is a fixed
// point for prog, the parse of src; a mismatch is a frontend defect worth
// a corpus entry. When src is already prog's print (every mutant is), the
// reparse is skipped: the parser is deterministic, so reparsing the print
// rebuilds prog, whose print is the same text again.
func roundtripDisagreement(name, src string, prog *ast.Program) (string, bool) {
	printed := ast.Print(prog)
	if printed == src {
		return "", false
	}
	re, err := parser.Parse(name, printed)
	if err != nil {
		return "printed form does not reparse: " + err.Error(), true
	}
	if again := ast.Print(re); again != printed {
		return "print is not a fixed point after reparse", true
	}
	return "", false
}

// FormatReport renders the campaign outcome.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz campaign: indices [%d, %d), seed %d, %d workers, %v\n",
		r.Window.Lo, r.Window.Hi, r.Seed, r.Workers, r.Elapsed.Round(time.Millisecond))
	lat := r.Gen.Lattice
	if lat == "" {
		lat = "two-point"
	}
	fmt.Fprintf(&b, "  gen config: depth=%d stmts=%d fields=%d actions=%v lattice=%s\n",
		r.Gen.MaxDepth, r.Gen.MaxStmts, r.Gen.NumFields, r.Gen.WithActions, lat)
	fmt.Fprintf(&b, "  analyzed %d programs, %d NI trials\n", r.Analyzed, r.TrialsRun)
	if r.SeedPoolSize > 0 || r.MutantJobs > 0 {
		fmt.Fprintf(&b, "  mutation: %d mutant jobs from a %d-seed pool\n", r.MutantJobs, r.SeedPoolSize)
	}
	fmt.Fprintf(&b, "  %-36s %8s\n", "verdict", "count")
	for v := difftest.Verdict(0); v < difftest.NumVerdicts; v++ {
		fmt.Fprintf(&b, "  %-36s %8d\n", v, r.Counts[v])
	}
	fmt.Fprintf(&b, "  %-36s %8d\n", "parser disagreement", r.ParserDisagreements)
	if len(r.RulesCited) > 0 {
		b.WriteString("  rules cited on rejections:")
		rules := make([]string, 0, len(r.RulesCited))
		for k := range r.RulesCited {
			rules = append(rules, k)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			fmt.Fprintf(&b, " %s×%d", rule, r.RulesCited[rule])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  findings: %d new, %d dup, %d known, %d capped",
		r.NewFindings, r.DupFindings, r.KnownFindings, r.CappedFindings)
	if r.Minimized > 0 {
		fmt.Fprintf(&b, "; %d minimized (%d bytes saved)", r.Minimized, r.BytesSaved)
	}
	b.WriteByte('\n')
	if r.CorpusDir != "" {
		fmt.Fprintf(&b, "  corpus: %s\n", r.CorpusDir)
	}
	for _, f := range r.Findings {
		where := f.Path
		if where == "" {
			where = "(not persisted)"
		}
		origin := ""
		if f.Origin == "mutate" {
			origin = fmt.Sprintf(", mutated from %.12s", f.ParentKey)
		}
		fmt.Fprintf(&b, "\nFINDING %s (index %d, regen seed %d, %d bytes%s%s) %s\n  %s\n",
			f.Class, f.Index, f.GenSeed, len(f.Source), minimizedTag(f), origin, where, f.Detail)
	}
	switch {
	case r.Aborted:
		fmt.Fprintf(&b, "ABORTED: campaign incomplete; verdicts cover %d programs\n", r.Analyzed)
	case r.OK():
		b.WriteString("PASS: no soundness violations, generator bugs, runtime errors, or parser disagreements\n")
	default:
		b.WriteString("FAIL: implementation defects found (see findings above)\n")
	}
	return b.String()
}
