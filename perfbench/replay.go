package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diag"
	"repro/internal/difftest"
	"repro/internal/eval"
	"repro/internal/exhaust"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/mutate"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/resolve"
	"repro/internal/shrink"
)

// campaignMaxPerClass is the campaign's default cap on findings processed
// per class.
const campaignMaxPerClass = 25

// mutateFrac is the campaign's default share of mutant jobs.
const mutateFrac = 0.5

// replayer re-drives one campaign's jobs through the layers' exported entry
// points, in the order the campaign uses them, one job at a time. With a
// tracer every call runs under a span; without one the same calls run
// bare, which gives the tracing overhead.
type replayer struct {
	w    *campaignWorkload
	seed int64
	lat  lattice.Lattice
	tr   *tracer
	// reg is the replay's own metrics registry: the exhaustive oracle
	// records its enumeration clock there.
	reg  *metrics.Registry
	corp *corpus.Corpus
	// pool holds the seed corpus's programs under the campaign lattice.
	pool []string
	l    layers

	verdicts     map[int64]difftest.Verdict
	fresh        map[int64]bool
	tally        tallies // over the campaign jobs, shrink replays excluded
	pipelineJobs int
	classCount   map[campaign.Class]int
	seen         map[string]bool
	pending      []pendingFinding
}

// pendingFinding is one collected program awaiting minimization.
type pendingFinding struct {
	class   campaign.Class
	verdict difftest.Verdict
	name    string
	source  string
	idx     int64
	rule    string
	detail  string
}

// replayCampaign replays the campaign with the given seed over a fresh
// seed-corpus copy in dir.
func replayCampaign(w *campaignWorkload, seed int64, dir string, tr *tracer) (*replayer, time.Duration, error) {
	lat, err := w.gen.ResolveLattice()
	if err != nil {
		return nil, 0, err
	}
	if err := copySeedCorpus(dir); err != nil {
		return nil, 0, err
	}
	r := &replayer{
		w: w, seed: seed, lat: lat, tr: tr, reg: metrics.NewRegistry(),
		verdicts: map[int64]difftest.Verdict{}, fresh: map[int64]bool{},
		classCount: map[campaign.Class]int{}, seen: map[string]bool{},
	}
	start := time.Now()
	id := tr.begin("corpus.open", -1)
	r.corp, err = corpus.Open(dir)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	if w.mutation {
		for e := range r.corp.Select(corpus.Filter{}) {
			if e.Meta.Gen.Lattice != w.gen.Lattice {
				continue
			}
			if src, err := e.Source(); err == nil {
				r.pool = append(r.pool, src)
			}
		}
	}
	for idx := int64(0); idx < int64(w.jobs); idx++ {
		r.job(idx)
	}
	fin := tr.begin("finalize", -1)
	for _, p := range r.pending {
		if err := r.finalize(p); err != nil {
			return nil, 0, err
		}
	}
	id = tr.begin("corpus.save_index", -1)
	err = r.corp.SaveIndex()
	tr.end(id)
	tr.end(fin)
	return r, time.Since(start), err
}

// job is one campaign index: source, analysis, classification and the
// roundtrip check, then collection under the per-class cap.
func (r *replayer) job(idx int64) {
	root := r.tr.begin("job", idx)
	defer r.tr.end(root)
	name := fmt.Sprintf("fuzz-%d.p4", idx)
	src, fresh, mutant := r.source(idx)
	res := r.analyze(name, src, r.seed+idx, idx, false)
	id := r.tr.begin("consume", idx)
	v, detail := difftest.Classify(&res)
	rule := res.CitedRule()
	if detail == "" && res.IFC != nil && !res.IFC.OK && len(res.IFC.Diags) > 0 {
		detail = res.IFC.Diags[0].Error()
	}
	disagrees := res.Prog != nil && roundtripDisagrees(name, res.Prog)
	r.tr.end(id)
	r.verdicts[idx] = v
	r.fresh[idx] = fresh
	r.tally.counts[v]++
	r.tally.analyzed++
	r.tally.trials += int64(res.NITrialsRun)
	r.tally.assignments += float64(res.NIAssignments)
	if mutant {
		r.tally.mutants++
	}
	if class, ok := classOf(v); ok {
		r.collect(pendingFinding{class: class, verdict: v, name: name, source: src, idx: idx, rule: rule, detail: detail})
	}
	if disagrees {
		r.collect(pendingFinding{class: campaign.ClassParserDisagreement, verdict: v, name: name, source: src, idx: idx})
	}
}

// source produces index idx's program as the campaign does: the same rng,
// the same mutate-or-generate coin, and the same fallback to generation.
// The campaign's weighted seed-pool pick is unexported, so mutant jobs pick
// their seed and donor uniformly from the same pool with the job's rng;
// fresh is true only for jobs that generate without a mutation attempt,
// whose programs are therefore the campaign's own; mutant for jobs whose
// mutation succeeded.
func (r *replayer) source(idx int64) (src string, fresh, mutant bool) {
	rng := rand.New(rand.NewSource(r.seed + idx))
	fresh = true
	if r.w.mutation && len(r.pool) > 0 && rng.Float64() < mutateFrac {
		fresh = false
		id := r.tr.begin("mutate", idx)
		cfg := mutate.Config{Lattice: r.w.gen.Lattice}
		parent := r.pool[rng.Intn(len(r.pool))]
		if len(r.pool) > 1 && rng.Intn(4) == 0 {
			cfg.Donor = r.pool[rng.Intn(len(r.pool))]
		}
		res, err := mutate.Mutate(rng, fmt.Sprintf("mut-%d.p4", idx), parent, cfg)
		r.tr.end(id)
		r.l.mutateCalls++
		if err == nil {
			return res.Source, false, true
		}
		r.l.mutateFallbacks++
	}
	id := r.tr.begin("gen", idx)
	src = gen.Random(rng, r.w.gen)
	r.tr.end(id)
	return src, fresh, false
}

// analyze is the pipeline's per-job stage sequence (parse, resolve, base
// check, IFC check, then compile and the per-observer NI oracle), each
// call under a span. replay marks a shrink candidate rather than a
// campaign job; both are pipeline jobs.
func (r *replayer) analyze(name, src string, niSeed, job int64, replay bool) pipeline.JobResult {
	tr := r.tr
	res := pipeline.JobResult{Job: pipeline.Job{Name: name, Source: src, Lat: r.lat}}
	r.pipelineJobs++

	id := tr.begin("parse", job)
	prog, err := parser.Parse(name, src)
	tr.end(id)
	if err != nil {
		res.ParseErr = err
		return res
	}
	res.Prog = prog
	r.l.parseBytes += int64(len(src))

	id = tr.begin("resolve", job)
	var diags diag.List
	resolve.New(r.lat, &diags).CollectTypeDecls(prog)
	tr.end(id)
	if res.ResolveErr = diags.Err(); res.ResolveErr != nil {
		return res
	}

	id = tr.begin("basecheck", job)
	res.Base = basecheck.Check(prog)
	tr.end(id)
	if !res.Base.OK {
		return res
	}

	id = tr.begin("ifc", job)
	res.IFC = core.Check(prog, r.lat)
	tr.end(id)

	id = tr.begin("compile", job)
	code, compileErr := eval.Compile(prog)
	tr.end(id)
	observers := observersFor(r.lat)
	orc := sampler(len(observers), res.IFC.OK)
	if r.w.oracle == pipeline.OracleExhaustive {
		orc = exhaust.Oracle{Budget: r.w.budget, Fallback: orc}
	}
	res.NIOracle = orc.Name()
	allTotal, sampled := true, false
	for _, obs := range observers {
		exp := &ni.Experiment{Prog: prog, Lat: r.lat, Observer: obs, Code: code, Interp: compileErr != nil, Metrics: r.reg}
		id = tr.begin("oracle", job)
		t0 := time.Now()
		out, err := orc.Check(exp, niSeed)
		el := time.Since(t0)
		layer := "ni"
		if out.Assignments > 0 {
			layer = "exhaust"
		}
		tr.endAs(id, layer)
		var allocs uint64
		if tr != nil {
			allocs = tr.spans[id].Allocs
		}
		if layer == "exhaust" {
			r.l.exAssignments += out.Assignments
			r.l.exAllocs += allocs
		} else {
			sampled = true
			r.l.niTrials += out.Trials
			r.l.niTime += el.Seconds()
			r.l.niAllocs += allocs
		}
		res.NIViolations = append(res.NIViolations, out.Violations...)
		res.NITrialsRun += out.Trials
		res.NIAssignments += out.Assignments
		allTotal = allTotal && out.Total
		if outcomeRank(out.Outcome) > outcomeRank(res.NIOutcome) {
			res.NIOutcome, res.NIReason = out.Outcome, out.Reason
		}
		if err != nil && res.NIErr == nil {
			res.NIErr = err
		}
		if len(out.Violations) > 0 {
			break
		}
	}
	res.NITotal = allTotal
	res.NIRan = true
	if !replay {
		if sampled {
			r.l.niJobs++
			if len(res.NIViolations) > 0 {
				r.l.niWitnessed++
			}
		}
		if res.NIOracle == pipeline.OracleExhaustive {
			r.l.exJobs++
			if res.NITotal {
				r.l.exTotal++
			}
			if res.NIOutcome == ni.Inconclusive {
				r.l.exInconclusive++
			}
		}
	}
	return res
}

// outcomeRank is the pipeline's aggregation order over the observer sweep.
func outcomeRank(o ni.Outcome) int {
	switch o {
	case ni.ProvedInsecure:
		return 3
	case ni.Inconclusive:
		return 2
	case ni.ProvedSecure:
		return 1
	}
	return 0
}

// classOf is the campaign's mapping from verdicts to persisted classes.
func classOf(v difftest.Verdict) (campaign.Class, bool) {
	switch v {
	case difftest.SoundnessViolation:
		return campaign.ClassSoundnessViolation, true
	case difftest.GeneratorBug:
		return campaign.ClassGeneratorBug, true
	case difftest.RuntimeError:
		return campaign.ClassRuntimeError, true
	case difftest.RejectedClean:
		return campaign.ClassRejectedClean, true
	case difftest.ProvedImprecise:
		return campaign.ClassProvedImprecise, true
	case difftest.SecretExhausted:
		return campaign.ClassSecretExhausted, true
	case difftest.UnderTested:
		return campaign.ClassUnderTested, true
	}
	return "", false
}

// roundtripDisagrees is the campaign's frontend check: parse, print,
// reparse, print again, and compare.
func roundtripDisagrees(name string, prog *ast.Program) bool {
	printed := ast.Print(prog)
	re, err := parser.Parse(name, printed)
	return err != nil || ast.Print(re) != printed
}

// collect charges the per-class cap in index order. The campaign charges it
// in result-completion order, so with two workers the set of findings it
// minimizes can differ from this one once a class reaches the cap.
func (r *replayer) collect(p pendingFinding) {
	if r.classCount[p.class] >= campaignMaxPerClass {
		return
	}
	r.classCount[p.class]++
	r.pending = append(r.pending, p)
}

// finalize minimizes one collected program with a class-preserving
// predicate, deduplicates it and persists it.
func (r *replayer) finalize(p pendingFinding) error {
	keep := func(cand string) bool {
		id := r.tr.begin("replay", p.idx)
		defer r.tr.end(id)
		if p.class == campaign.ClassParserDisagreement {
			prog, err := parser.Parse("cand.p4", cand)
			return err == nil && roundtripDisagrees("cand.p4", prog)
		}
		res := r.analyze("cand.p4", cand, r.seed+p.idx, p.idx, true)
		got, _ := difftest.Classify(&res)
		return got == p.verdict
	}
	id := r.tr.begin("shrink", p.idx)
	m, err := shrink.Minimize(p.name, p.source, keep)
	r.tr.end(id)
	src := p.source
	if err == nil {
		src = m.Source
	}
	r.l.shrinkTried += m.Tried
	r.l.shrinkAccepted += m.Accepted
	key := corpus.DedupKey(corpus.Class(p.class), src)
	if r.seen[key] || r.corp.Has(key) {
		r.seen[key] = true
		return nil
	}
	r.seen[key] = true
	id = r.tr.begin("corpus.put", p.idx)
	_, err = r.corp.Put(corpus.Meta{
		Class: corpus.Class(p.class), Rule: p.rule, Detail: p.detail,
		Index: p.idx, GenSeed: r.seed + p.idx, NISeed: r.seed + p.idx,
		NITrials: campaignTrials, NITrialsMax: campaignTrialsMax, NIOracle: r.w.oracle, ExhaustBudget: r.w.budget,
		Gen: r.w.gen, OriginalBytes: len(p.source), Bytes: len(src), Minimized: len(src) < len(p.source),
		Key: key, FoundAt: time.Now(), NumShards: 1,
	}, src)
	r.tr.end(id)
	return err
}

// tallies are a campaign's results that do not depend on the order in which
// its two workers complete jobs.
type tallies struct {
	counts      [difftest.NumVerdicts]int
	analyzed    int
	trials      int64
	mutants     int
	assignments float64 // exhaust_assignments_total over the stream's jobs
}

func talliesOf(c *campaignRun) tallies {
	return tallies{c.rep.Counts, c.rep.Analyzed, c.rep.TrialsRun, c.rep.MutantJobs,
		c.streamEnd.Counter("exhaust_assignments_total")}
}

// traceCampaign is the campaign workloads' traced run. It runs the Session
// campaign of the run's first seed (A), then replays the same job set bare
// and under spans. The per-layer numbers come from the spans and from A's
// own metrics. The replay is checked against A: each fresh job's verdict
// exactly, the pipeline job count and per-stage time within stated
// tolerances. A's order-independent tallies must equal the replay's when
// every job is fresh; under mutation the replay's mutants differ from A's,
// so a second session (B) from the same seed must reproduce them instead.
func traceCampaign(ctx context.Context, w *campaignWorkload, seed int64, work string) (*result, error) {
	res := &result{}
	s := campaignSeed(seed, 0, w.jobs)
	a, err := runCampaign(ctx, w, filepath.Join(work, "session-a"), s)
	if err != nil {
		return nil, err
	}
	sessions := []*campaignRun{a}
	if w.mutation {
		b, err := runCampaign(ctx, w, filepath.Join(work, "session-b"), s)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, b)
	}
	for i, c := range sessions {
		res.attempted += c.rep.Analyzed
		res.failed += defects(c.rep)
		res.note("session %c (completion-order dependent, not compared): %d new, %d dup, %d capped, %d minimized, %d bytes saved",
			'A'+i, c.rep.NewFindings, c.rep.DupFindings, c.rep.CappedFindings, c.rep.Minimized, c.rep.BytesSaved)
	}

	_, offWall, err := replayCampaign(w, s, filepath.Join(work, "replay-bare"), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	r, onWall, err := replayCampaign(w, s, filepath.Join(work, "replay-traced"), tr)
	if err != nil {
		return nil, err
	}
	want, other := talliesOf(a), r.tally
	if w.mutation {
		other = talliesOf(sessions[1])
	}
	if want != other {
		res.broken = append(res.broken, fmt.Sprintf("order-independent tallies disagree: %+v vs %+v", want, other))
	}

	// Fresh jobs are the campaign's own programs: their verdicts must match
	// the session's exactly.
	fresh, mismatches := 0, 0
	for idx, v := range r.verdicts {
		if !r.fresh[idx] {
			continue
		}
		fresh++
		if a.classes[idx] != v.String() {
			mismatches++
		}
	}
	res.attempted += fresh
	if mismatches > 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d of %d fresh jobs got another verdict in the replay", mismatches, fresh))
	}

	l := r.l
	l.st = tr.stats()
	snap := a.final
	var traced, clock []float64
	for _, name := range stageNames[:4] {
		traced = append(traced, l.stat(name).total.Seconds())
	}
	traced = append(traced, (l.stat("compile").total + l.stat("ni").total + l.stat("exhaust").total).Seconds())
	for _, name := range stageNames {
		clock = append(clock, histSum(snap, "pipeline_stage_seconds", "stage", name))
	}
	maxDev, scale := compareStages(res, traced, clock, "s")
	// Enumeration is part of the NI stage: its share there must agree too.
	enumTraced := histSum(r.reg.Snapshot(), "exhaust_enumeration_seconds")
	if enumClock := histSum(snap, "exhaust_enumeration_seconds"); enumClock > 0 {
		tShare, cShare := ratio(enumTraced, traced[4]), ratio(enumClock, clock[4])
		res.note("exhaust_enumeration_seconds: traced %.4g s (%.1f%% of NI), session %.4g s (%.1f%% of NI)", enumTraced, 100*tShare, enumClock, 100*cShare)
		if dev := relDev(tShare, cShare); dev > shareTolerance {
			res.broken = append(res.broken, fmt.Sprintf("traced enumeration share of the NI stage deviates %.0f%% from the session's", 100*dev))
		}
	}
	var share [5]float64
	for i := range clock {
		share[i] = ratio(clock[i], sumStages(snap))
	}
	pipeJobs := snap.Counter("pipeline_jobs_total")
	campJobs := snap.Counter("campaign_jobs_total")
	jobsDev := relDev(float64(r.pipelineJobs), pipeJobs)
	res.note("pipeline jobs: replay %d, session %.0f (%.0f campaign jobs, the rest shrink replays)", r.pipelineJobs, pipeJobs, campJobs)
	if jobsDev > jobsTolerance {
		res.broken = append(res.broken, fmt.Sprintf("replay ran %d pipeline jobs, the session %.0f", r.pipelineJobs, pipeJobs))
	}

	l.exEnumSeconds = enumTraced
	l.exJobAssignments = r.tally.assignments
	l.replayJobFrac = ratio(pipeJobs-campJobs, pipeJobs)
	l.busyFrac = ratio(sumStages(*a.streamEnd), a.streamS()*campaignWorkers)
	l.stageShare = share
	l.streamS, l.finalizeS = a.streamS(), a.finalizeS()
	l.cpuBusyFrac = ratio(a.cpu.Seconds(), a.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	l.jobs = w.jobs
	l.overheadS = (onWall - offWall).Seconds()
	l.overheadFrac = ratio(l.overheadS, offWall.Seconds())
	l.stageMaxDev = maxDev
	l.stageScale = scale
	l.jobsDev = jobsDev
	l.freshMismatches = mismatches
	res.note("replay: bare %v, traced %v; session wall %v (stream %.3f s, finalize %.3f s)", offWall, onWall, a.wall, a.streamS(), a.finalizeS())
	l.emit(res)
	return res, writeSpans(tr, w.name)
}
