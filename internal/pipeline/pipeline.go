// Package pipeline is a worker-pool batch-analysis engine: it runs the
// repo's full analysis stack — parse → resolve → baseline-check →
// IFC-check → (optional) non-interference experiment — concurrently over a
// corpus of programs.
//
// The engine exists for two workloads:
//
//   - throughput: checking a large corpus (generated sweeps, case-study
//     matrices, CI gates) as fast as the hardware allows, with bounded
//     parallelism and per-stage timing so regressions are attributable;
//   - fuzzing: internal/campaign drives millions of generated programs
//     through the same stages, and internal/difftest classifies each
//     result by cross-checking the oracles' verdicts.
//
// Jobs are independent, so the pool is a plain fan-out: a channel of job
// indices feeds N workers, each writing its own slot of the results slice.
// Cancellation is cooperative per job boundary — workers drain nothing
// after ctx is done, and Run reports ctx.Err() while still returning the
// results completed so far.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/eval"
	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// Stage identifies one analysis stage, in execution order.
type Stage int

// Stages.
const (
	StageParse Stage = iota
	StageResolve
	StageBase
	StageIFC
	StageNI
	NumStages
)

// String renders the stage name.
func (s Stage) String() string {
	switch s {
	case StageParse:
		return "parse"
	case StageResolve:
		return "resolve"
	case StageBase:
		return "basecheck"
	case StageIFC:
		return "ifc"
	case StageNI:
		return "ni"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// NIMode selects which jobs the NI-experiment stage runs on.
type NIMode int

// NI modes.
const (
	// NIOff skips the NI stage entirely.
	NIOff NIMode = iota
	// NIAccepted runs NI experiments only on IFC-accepted programs — the
	// soundness check (Theorem 4.3: accepted ⇒ non-interfering).
	NIAccepted
	// NIAll runs NI experiments on every base-well-typed program,
	// including IFC-rejected ones — the differential harness uses the
	// extra runs to tell true positives (interference witnessed) from
	// conservative rejections (no witness found).
	NIAll
)

// Job is one program to analyze.
type Job struct {
	// Name names the program in diagnostics (used as the parse file name).
	Name string
	// Source is the program text.
	Source string
	// Lat is the security lattice to check against; nil means two-point.
	Lat lattice.Lattice
	// Seq is the job's NI-seed offset: its NI experiment runs with
	// Options.NISeed + Seq, so results are reproducible regardless of
	// worker interleaving or arrival order. Run overwrites Seq with the
	// job's slice index; RunStream callers set it themselves (a campaign
	// uses the global campaign index, keeping per-program NI randomness
	// identical however the index space is split into windows).
	Seq int64
}

// Options configures a batch run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS(0).
	Workers int
	// NI selects the non-interference stage's mode (default NIOff).
	NI NIMode
	// Budget is the NI stage's trial budget and backend; Run and
	// RunStream apply Budget.Resolved's defaults.
	Budget
	// NISeed seeds the NI experiments; job i runs with NISeed + i so a
	// batch is reproducible regardless of worker interleaving.
	NISeed int64
	// Metrics, when non-nil, receives per-stage duration histograms
	// (pipeline_stage_seconds{stage=...}), a pipeline_jobs_total counter,
	// and the NI stage's trial/witness counters. Nil costs one no-op call
	// per stage.
	Metrics *metrics.Registry
}

// Budget is the NI stage's trial budget and backend. A campaign records
// it in its fleet manifest, hence the JSON tags.
type Budget struct {
	// Trials is the number of randomized trials per NI experiment, and
	// all that IFC-accepted programs get (0 = 4).
	Trials int `json:"ni_trials,omitempty"`
	// TrialsMax, when greater than Trials, makes the budget adaptive:
	// IFC-rejected programs escalate in doubling rounds from Trials up to
	// TrialsMax total, stopping at the first interference witness —
	// spending trials where rejection witnesses are likely, to separate
	// true positives from conservative rejections (0 = 8 × Trials;
	// negative or below Trials = a flat budget of Trials).
	TrialsMax int `json:"ni_trials_max,omitempty"`
	// Oracle selects the NI backend: OracleAdaptive (the default, also
	// chosen by ""), OracleRandomized (flat budget, no escalation), or
	// OracleExhaustive (internal/exhaust enumeration with the adaptive
	// sampler as fallback for enumeration-ineligible jobs). The adaptive
	// default degrades to a flat randomized budget when TrialsMax doesn't
	// exceed Trials.
	Oracle string `json:"ni_oracle,omitempty"`
	// ExhaustBudget bounds machine runs per exhaustive observer check
	// (0 = exhaust.DefaultBudget). Only read by OracleExhaustive.
	ExhaustBudget uint64 `json:"exhaust_budget,omitempty"`
	// ExhaustProbes fixes the exhaustive oracle's public probes per
	// observer (0 = derived from the budget).
	ExhaustProbes int `json:"exhaust_probes,omitempty"`
}

// Resolved returns b with the one default NI budget applied: 4 trials,
// a ceiling of 8 × Trials, and a ceiling that is negative or below
// Trials made equal to it (a flat budget). The oracle fields stay as
// given.
func (b Budget) Resolved() Budget {
	if b.Trials <= 0 {
		b.Trials = 4
	}
	if b.TrialsMax == 0 {
		b.TrialsMax = 8 * b.Trials
	}
	if b.TrialsMax < b.Trials {
		b.TrialsMax = b.Trials
	}
	return b
}

// Oracle names for Budget.Oracle.
const (
	OracleAdaptive   = "adaptive"
	OracleRandomized = "randomized"
	OracleExhaustive = "exhaustive"
)

// Validate rejects an Oracle that names no known NI backend ("" is the
// adaptive default).
func (b Budget) Validate() error {
	switch b.Oracle {
	case "", OracleAdaptive, OracleRandomized, OracleExhaustive:
		return nil
	}
	return fmt.Errorf("unknown NI oracle %q (want %q, %q, or %q)",
		b.Oracle, OracleAdaptive, OracleRandomized, OracleExhaustive)
}

// instruments caches the metric handles a run's hot path touches, so
// workers never take the registry lock per job. The zero value (from a nil
// registry) is all nil handles, whose methods no-op.
type instruments struct {
	jobs   *metrics.Counter
	stages [NumStages]*metrics.Histogram
	// Exhaustive-oracle job accounting, pre-registered when the oracle is
	// selected so the series are present even before the first job (and
	// the CI identity sum(exhaust_job_verdicts_total) ==
	// exhaust_jobs_total holds from the first snapshot).
	exJobs     *metrics.Counter
	exVerdicts map[ni.Outcome]*metrics.Counter
}

func newInstruments(opts Options) instruments {
	r := opts.Metrics
	var ins instruments
	ins.jobs = r.Counter("pipeline_jobs_total")
	for s := Stage(0); s < NumStages; s++ {
		ins.stages[s] = r.Histogram("pipeline_stage_seconds", metrics.DurationBuckets, "stage", s.String())
	}
	if opts.Oracle == OracleExhaustive {
		ins.exJobs = r.Counter("exhaust_jobs_total")
		ins.exVerdicts = map[ni.Outcome]*metrics.Counter{
			ni.ProvedSecure:   r.Counter("exhaust_job_verdicts_total", "outcome", ni.ProvedSecure.String()),
			ni.ProvedInsecure: r.Counter("exhaust_job_verdicts_total", "outcome", ni.ProvedInsecure.String()),
			ni.Inconclusive:   r.Counter("exhaust_job_verdicts_total", "outcome", ni.Inconclusive.String()),
		}
		// The per-enumeration series internal/exhaust records, registered
		// up front for deterministic presence in snapshots.
		r.Counter("exhaust_assignments_total")
		r.Counter("exhaust_proofs_total", "verdict", "secure")
		r.Counter("exhaust_proofs_total", "verdict", "insecure")
		r.Histogram("exhaust_enumeration_seconds", metrics.DurationBuckets)
	}
	return ins
}

// observe records one finished job: stages that never ran (zero duration
// after an earlier stage failed) are not observed.
func (ins instruments) observe(r *JobResult) {
	ins.jobs.Inc()
	for s := Stage(0); s < NumStages; s++ {
		if r.StageDur[s] > 0 {
			ins.stages[s].ObserveDuration(r.StageDur[s])
		}
	}
}

// JobResult is the outcome of all stages for one job. Stages after a
// failing stage are skipped and their fields are zero.
type JobResult struct {
	Job Job
	// Prog is the parsed program (nil if parsing failed).
	Prog *ast.Program
	// ParseErr is the parse failure, if any.
	ParseErr error
	// ResolveErr reports type-declaration resolution failures.
	ResolveErr error
	// Base is the baseline (label-insensitive) verdict.
	Base *basecheck.Result
	// IFC is the P4BID verdict.
	IFC *core.Result
	// NIViolations holds interference witnesses found by the NI stage.
	NIViolations []ni.Violation
	// NIErr is a runtime error from the NI stage (not a violation).
	NIErr error
	// NIRan reports whether the NI stage ran for this job.
	NIRan bool
	// NITrialsRun is the number of NI trials actually executed — less than
	// the configured budget when an adaptive run stopped at a witness,
	// more than Budget.Trials when a rejected program escalated. For the
	// exhaustive oracle each enumerated assignment run counts as one
	// trial.
	NITrialsRun int
	// NIOracle is the backend family the NI stage ran under ("" when the
	// stage was skipped): "randomized", "adaptive", or "exhaustive".
	NIOracle string
	// NIOutcome aggregates the per-observer oracle outcomes for the job
	// (ProvedInsecure > Inconclusive > ProvedSecure; Sampled for the
	// randomized backends). NIReason explains an Inconclusive outcome.
	NIOutcome ni.Outcome
	NIReason  string
	// NIAssignments counts input assignments the exhaustive oracle
	// enumerated across the observer sweep.
	NIAssignments uint64
	// NITotal reports that every oracle check in the observer sweep
	// enumerated the full public × secret input space (ni.Result.Total
	// at each observer). Only then is a ProvedSecure aggregate a proof
	// over the whole input space; without it the public side was merely
	// probed and a clean sweep certifies nothing beyond the probed
	// states. Always false for the sampling backends.
	NITotal bool
	// StageDur records wall-clock time spent per stage.
	StageDur [NumStages]time.Duration
}

// ParseOK reports whether the job parsed and resolved.
func (r *JobResult) ParseOK() bool { return r.ParseErr == nil && r.ResolveErr == nil }

// BaseOK reports whether the baseline checker accepted the job.
func (r *JobResult) BaseOK() bool { return r.Base != nil && r.Base.OK }

// IFCOK reports whether the IFC checker accepted the job.
func (r *JobResult) IFCOK() bool { return r.IFC != nil && r.IFC.OK }

// CitedRule returns the typing rule the IFC checker's first rule-bearing
// diagnostic cites (e.g. "T-Assign"), or "" when the job was accepted,
// never reached the IFC stage, or was rejected without a rule attribution.
// Downstream triage clusters findings by this rule, so it is exposed here
// rather than re-parsed out of rendered diagnostic text.
func (r *JobResult) CitedRule() string {
	if r.IFC == nil {
		return ""
	}
	for _, d := range r.IFC.Diags {
		if d.Rule != "" {
			return d.Rule
		}
	}
	return ""
}

// CitedRules returns every distinct typing rule the IFC checker cited on
// this job, in first-citation order.
func (r *JobResult) CitedRules() []string {
	if r.IFC == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, d := range r.IFC.Diags {
		if d.Rule != "" && !seen[d.Rule] {
			seen[d.Rule] = true
			out = append(out, d.Rule)
		}
	}
	return out
}

// Summary aggregates a batch run.
type Summary struct {
	// Results holds one entry per job, in job order.
	Results []JobResult
	// Workers is the pool size used.
	Workers int
	// Elapsed is the whole batch's wall-clock time.
	Elapsed time.Duration
	// StageDur is the per-stage CPU-ish time summed across jobs (it can
	// exceed Elapsed under parallelism; Elapsed·Workers bounds it).
	StageDur [NumStages]time.Duration
	// Parsed, BaseAccepted, IFCAccepted, and NIViolating count jobs.
	Parsed, BaseAccepted, IFCAccepted, NIViolating int
	// NITrialsRun totals NI trials across jobs (interesting under an
	// adaptive budget, where it differs from jobs × Budget.Trials).
	NITrialsRun int64
}

// Run analyzes all jobs with a bounded worker pool. It returns the partial
// summary and ctx.Err() if the context is cancelled mid-batch; otherwise
// every job has a result.
func Run(ctx context.Context, jobs []Job, opts Options) (*Summary, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	opts.Budget = opts.Budget.Resolved()

	start := time.Now()
	ins := newInstruments(opts)
	results := make([]JobResult, len(jobs))
	done := make([]bool, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				job := jobs[i]
				job.Seq = int64(i)
				results[i] = runJob(job, opts, ins)
				done[i] = true
			}
		}()
	}

	var ctxErr error
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()

	sum := &Summary{Workers: workers, Elapsed: time.Since(start)}
	if ctxErr != nil {
		// Keep only the prefix-closed set of completed results so callers
		// see a dense, ordered slice.
		for i := range results {
			if !done[i] {
				results = results[:i]
				break
			}
		}
	}
	sum.Results = results
	for i := range sum.Results {
		r := &sum.Results[i]
		for s := Stage(0); s < NumStages; s++ {
			sum.StageDur[s] += r.StageDur[s]
		}
		if r.ParseOK() {
			sum.Parsed++
		}
		if r.BaseOK() {
			sum.BaseAccepted++
		}
		if r.IFCOK() {
			sum.IFCAccepted++
		}
		if len(r.NIViolations) > 0 {
			sum.NIViolating++
		}
		sum.NITrialsRun += int64(r.NITrialsRun)
	}
	return sum, ctxErr
}

// RunStream is the channel-fed variant of Run for corpora too large (or
// too lazily produced) to materialize: workers pull jobs from the jobs
// channel as they arrive and deliver results on the returned channel in
// completion order. The result channel buffers one result per worker —
// the number of concurrent senders — so a worker that finishes while the
// consumer is busy parks its result and takes its next job instead of
// waiting for the consumer. It closes once all workers have drained —
// after the jobs channel closes or ctx is done, whichever comes first.
//
// Cancellation leaks nothing: on ctx.Done every worker stops pulling jobs
// and stops offering results, so a producer that also selects on ctx.Done
// when sending (as any must) and a consumer ranging over the result
// channel both terminate. Each job's NI experiment is seeded with
// Options.NISeed + Job.Seq, so the producer controls reproducibility by
// numbering jobs; Run's slice-index seeding is the special case Seq = i.
func RunStream(ctx context.Context, jobs <-chan Job, opts Options) <-chan JobResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Budget = opts.Budget.Resolved()
	ins := newInstruments(opts)
	out := make(chan JobResult, workers) // one parked result per worker (see the doc)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job, ok := <-jobs:
					if !ok {
						return
					}
					r := runJob(job, opts, ins)
					select {
					case out <- r:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runJob pushes one job through the stage sequence under a resolved
// budget.
func runJob(job Job, opts Options, ins instruments) JobResult {
	niSeed := opts.NISeed + job.Seq
	r := JobResult{Job: job}
	defer func() { ins.observe(&r) }()
	lat := job.Lat
	if lat == nil {
		lat = lattice.TwoPoint()
	}

	t0 := time.Now()
	prog, err := parser.Parse(job.Name, job.Source)
	r.StageDur[StageParse] = time.Since(t0)
	if err != nil {
		r.ParseErr = err
		return r
	}
	r.Prog = prog

	t0 = time.Now()
	var diags diag.List
	res := resolve.New(lat, &diags)
	res.CollectTypeDecls(prog)
	r.ResolveErr = diags.Err()
	r.StageDur[StageResolve] = time.Since(t0)
	if r.ResolveErr != nil {
		return r
	}

	t0 = time.Now()
	r.Base = basecheck.Check(prog)
	r.StageDur[StageBase] = time.Since(t0)
	if !r.Base.OK {
		return r
	}

	t0 = time.Now()
	r.IFC = core.Check(prog, lat)
	r.StageDur[StageIFC] = time.Since(t0)

	runNI := opts.NI == NIAll || (opts.NI == NIAccepted && r.IFC.OK)
	if !runNI {
		return r
	}
	t0 = time.Now()
	// The oracle must observe at every level that can distinguish
	// anything: a single bottom observer is complete for the two-point
	// lattice (the only other observer sees everything, so nothing is
	// randomized for it) but blind to flows between non-bottom labels of
	// taller lattices — an L3 → L1 flow under chain:4 is invisible at L0
	// and only witnessable at L1/L2. The trial budget is split across the
	// observer sweep (ceil division, so every observer gets at least one
	// trial), and the sweep stops at the first witness: one violation
	// settles the classification.
	observers := observersFor(lat)
	split := len(observers)
	baseT := (opts.Trials + split - 1) / split
	maxT := 0
	if opts.TrialsMax > opts.Trials {
		maxT = (opts.TrialsMax + split - 1) / split
	}
	// Compile once per job: every observer level (and every trial within
	// it) runs the same closure tree. A compile failure pins the whole
	// sweep to the tree-walking interpreter rather than retrying the
	// compilation per observer.
	code, compileErr := eval.Compile(prog)
	orc := selectOracle(opts, baseT, maxT, r.IFC.OK)
	r.NIOracle = orc.Name()
	allTotal := true
	for _, obs := range observers {
		exp := &ni.Experiment{Prog: prog, Lat: lat, Observer: obs,
			Code: code, Interp: compileErr != nil, Metrics: opts.Metrics}
		res, err := orc.Check(exp, niSeed)
		r.NIViolations = append(r.NIViolations, res.Violations...)
		r.NITrialsRun += res.Trials
		r.NIAssignments += res.Assignments
		allTotal = allTotal && res.Total
		if outcomeRank(res.Outcome) > outcomeRank(r.NIOutcome) {
			r.NIOutcome = res.Outcome
			r.NIReason = res.Reason
		}
		if err != nil && r.NIErr == nil {
			r.NIErr = err
		}
		if len(res.Violations) > 0 {
			break
		}
	}
	r.NITotal = allTotal
	r.NIRan = true
	if ins.exJobs != nil {
		ins.exJobs.Inc()
		if c := ins.exVerdicts[r.NIOutcome]; c != nil {
			c.Inc()
		}
	}
	r.StageDur[StageNI] = time.Since(t0)
	return r
}

// selectOracle builds the per-observer NI backend a job runs under. The
// default (and "adaptive") reproduces the historical dispatch exactly —
// escalating rounds only for IFC-rejected jobs with headroom, otherwise
// a flat budget with the identical rng stream — so oracle selection
// never perturbs recorded corpora. The exhaustive oracle wraps that
// default as its sampling fallback for enumeration-ineligible jobs.
func selectOracle(opts Options, baseT, maxT int, ifcOK bool) ni.Oracle {
	sampler := ni.Oracle(ni.Randomized{Trials: baseT})
	if maxT > baseT && !ifcOK {
		// Adaptive budget: a rejected program is where an interference
		// witness is likely, so escalate toward the ceiling, stopping
		// at the first witness.
		sampler = ni.Adaptive{Min: baseT, Max: maxT}
	}
	switch opts.Oracle {
	case OracleRandomized:
		return ni.Randomized{Trials: baseT}
	case OracleExhaustive:
		return exhaust.Oracle{Budget: opts.ExhaustBudget, Probes: opts.ExhaustProbes, Fallback: sampler}
	default:
		return sampler
	}
}

// outcomeRank orders oracle outcomes for per-job aggregation across the
// observer sweep: one proved-insecure observer settles the job; any
// inconclusive observer taints a would-be proof of security; all-secure
// means secure.
func outcomeRank(o ni.Outcome) int {
	switch o {
	case ni.ProvedInsecure:
		return 3
	case ni.Inconclusive:
		return 2
	case ni.ProvedSecure:
		return 1
	default:
		return 0
	}
}

// observersFor returns the observer labels worth sweeping: every element
// except ⊤, whose observer has nothing unobservable to randomize and so
// can never witness anything. For the two-point lattice this is exactly
// the historical single bottom observer. A one-element lattice (where no
// flow can violate anything) degenerates to observing at that element.
func observersFor(lat lattice.Lattice) []lattice.Label {
	var out []lattice.Label
	for _, e := range lat.Elements() {
		if e != lat.Top() {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		out = []lattice.Label{lat.Bottom()}
	}
	return out
}

// FormatSummary renders the batch summary with the per-stage breakdown.
func FormatSummary(s *Summary) string {
	out := fmt.Sprintf("batch: %d programs, %d workers, %v wall-clock\n",
		len(s.Results), s.Workers, s.Elapsed.Round(time.Microsecond))
	out += fmt.Sprintf("  parsed %d, base-accepted %d, IFC-accepted %d, NI-violating %d\n",
		s.Parsed, s.BaseAccepted, s.IFCAccepted, s.NIViolating)
	for st := Stage(0); st < NumStages; st++ {
		if s.StageDur[st] == 0 {
			continue
		}
		out += fmt.Sprintf("  %-10s %12v summed across jobs\n", st, s.StageDur[st].Round(time.Microsecond))
	}
	return out
}
