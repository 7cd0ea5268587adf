package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// The campaign workloads run repro.NewSession(...).Campaign from a fresh
// copy of the regression corpus, on two workers.

// campaignWorkload is one campaign configuration.
type campaignWorkload struct {
	name string
	// jobs is the campaign size; a run repeats campaigns of this size, each
	// from its own seed and its own fresh corpus, until its time is up.
	jobs int
	// warmJobs is the size of the warm-up campaign each set-up runs.
	warmJobs int
	gen      repro.GenConfig
	oracle   string // "" is the adaptive default
	// budget is the exhaustive oracle's assignment budget per observer
	// (0 = its default).
	budget   uint64
	mutation bool
}

var (
	// adaptiveWorkload is the default fuzzing loop: mutation over the seed
	// corpus's two-point entries, minimized findings.
	adaptiveWorkload = campaignWorkload{name: "campaign-adaptive", jobs: 5000, warmJobs: 200, gen: gen.DefaultConfig(), mutation: true}
	// exhaustiveWorkload is the nightly's oracle setup: the exhaustive
	// oracle over one field per label, minimized findings, no mutation. Its
	// budget is 2^10, not the 2^16 default, so that a run analyzes thousands
	// of jobs rather than hundreds (README.md gives the measurements).
	exhaustiveWorkload = campaignWorkload{name: "campaign-exhaustive", jobs: 2000, warmJobs: 50, gen: oneFieldConfig(), oracle: "exhaustive", budget: 1 << 10}
)

func oneFieldConfig() repro.GenConfig {
	g := gen.DefaultConfig()
	g.NumFields = 1
	return g
}

// The campaign's NI budget (its defaults): 4 trials for accepted programs,
// escalating to 32 for rejected ones.
const (
	campaignTrials    = 4
	campaignTrialsMax = 32
	campaignWorkers   = 2
)

// campaignSeed gives campaign i of a run its own, disjoint index range.
func campaignSeed(seed int64, i, jobs int) int64 {
	return seed*1_000_000 + int64(i)*int64(jobs)
}

func (w *campaignWorkload) options(dir string, seed int64) []repro.SessionOption {
	opts := []repro.SessionOption{
		repro.WithCorpus(dir),
		repro.WithSeed(seed),
		repro.WithWorkers(campaignWorkers),
		repro.WithGenConfig(w.gen),
		repro.WithMinimize(),
		// Room for every event of the campaign, so none is dropped: a job-done
		// per job plus ticks, snapshots and findings.
		repro.WithEventBuffer(2*w.jobs + 1024),
	}
	if w.mutation {
		opts = append(opts, repro.WithMutation(0))
	}
	if w.oracle != "" {
		opts = append(opts, repro.WithNIOracle(w.oracle), repro.WithExhaustBudget(w.budget, 0))
	}
	return opts
}

// copySeedCorpus copies the regression corpus's finding pairs (not its
// derived index) into dir.
func copySeedCorpus(dir string) error {
	dst := filepath.Join(dir, "findings")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	src := filepath.Join(seedCorpusDir, "findings")
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if name == "index.json" || !(strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".p4")) {
			continue
		}
		if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// campaignRun is one untraced Session campaign and what its event stream
// showed.
type campaignRun struct {
	rep  *repro.CampaignReport
	wall time.Duration // Session.Campaign, call to return, stolen time excluded
	cpu  time.Duration // process CPU time during the call

	opStart, lastJob, firstFinding, opEnd time.Time
	// The stolen time at op start, the first finding, the end of the stream
	// and op end, read as the events arrive.
	sStart, sFirst, sStream, sEnd time.Duration
	// classes is each index's verdict as its job-done event reported it.
	classes map[int64]string
	// streamEnd is the session's metrics at the last job of the stream,
	// before the finalize phase: the campaign jobs' own pipeline work.
	streamEnd *repro.MetricsSnapshot
	// final is Session.Metrics() after the campaign returned.
	final   repro.MetricsSnapshot
	dropped int64
}

// streamS, finalizeS and firstS are the campaign's phases from its event
// timestamps, stolen time excluded.
func (c *campaignRun) streamS() float64 {
	return (c.lastJob.Sub(c.opStart) - (c.sStream - c.sStart)).Seconds()
}

func (c *campaignRun) finalizeS() float64 {
	return (c.opEnd.Sub(c.lastJob) - (c.sEnd - c.sStream)).Seconds()
}

func (c *campaignRun) firstS() float64 {
	return (c.firstFinding.Sub(c.opStart) - (c.sFirst - c.sStart)).Seconds()
}

// runCampaign sets up a fresh corpus in dir and runs one campaign on it.
func runCampaign(ctx context.Context, w *campaignWorkload, dir string, seed int64) (*campaignRun, error) {
	if err := copySeedCorpus(dir); err != nil {
		return nil, fmt.Errorf("seed corpus copy: %w", err)
	}
	s, err := repro.NewSession(w.options(dir, seed)...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Corpus(); err != nil {
		return nil, err
	}
	run := &campaignRun{classes: map[int64]string{}}

	evs := s.Events()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last *repro.MetricsSnapshot
		for ev := range evs {
			switch ev.Kind {
			case repro.EventOpStart:
				run.opStart, run.sStart = ev.Time, stolen()
			case repro.EventJobDone:
				run.lastJob = ev.Time
				run.classes[ev.Index] = ev.Class
			case repro.EventMetrics:
				last = ev.Snapshot
			case repro.EventProgress:
				if ev.Total > 0 && ev.Done == ev.Total {
					run.streamEnd = last // emitted just before the last tick
					run.sStream = stolen()
				}
			case repro.EventFinding:
				if run.firstFinding.IsZero() {
					run.firstFinding, run.sFirst = ev.Time, stolen()
				}
			case repro.EventOpEnd:
				run.opEnd, run.sEnd = ev.Time, stolen()
			}
		}
	}()
	cpu0 := cpuTime()
	t1, s1 := time.Now(), stolen()
	run.rep, err = s.Campaign(ctx, w.jobs)
	run.wall = since(t1, s1)
	run.cpu = cpuTime() - cpu0
	run.final = s.Metrics()
	run.dropped = s.Dropped()
	s.Close()
	<-done
	if err != nil {
		return nil, err
	}
	if run.streamEnd == nil || run.opStart.IsZero() || run.opEnd.IsZero() {
		return nil, fmt.Errorf("campaign event stream incomplete")
	}
	return run, nil
}

// defects counts the report's jobs in a defect class: soundness violations,
// generator bugs, runtime errors and parser disagreements.
func defects(rep *repro.CampaignReport) int {
	return rep.Counts[difftest.SoundnessViolation] + rep.Counts[difftest.GeneratorBug] +
		rep.Counts[difftest.RuntimeError] + rep.ParserDisagreements
}

// campaignSetups is how many times a run sets a campaign up; setup_s is the
// median.
const campaignSetups = 5

// setupCampaign is what a campaign needs before its first timed operation:
// a fresh copy of the seed corpus, the session and its corpus handle (whose
// open builds the index), and a warm-up campaign of warmJobs programs on a
// corpus-less session of the same configuration.
func setupCampaign(ctx context.Context, w *campaignWorkload, dir string, seed int64) error {
	defer os.RemoveAll(dir)
	if err := copySeedCorpus(dir); err != nil {
		return err
	}
	s, err := repro.NewSession(w.options(dir, seed)...)
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Corpus(); err != nil {
		return err
	}
	opts := []repro.SessionOption{repro.WithSeed(seed), repro.WithWorkers(campaignWorkers), repro.WithGenConfig(w.gen)}
	if w.oracle != "" {
		opts = append(opts, repro.WithNIOracle(w.oracle), repro.WithExhaustBudget(w.budget, 0))
	}
	warm, err := repro.NewSession(opts...)
	if err != nil {
		return err
	}
	defer warm.Close()
	_, err = warm.Campaign(ctx, w.warmJobs)
	return err
}

// verdictAccepts maps each difftest verdict, as job-done events spell it,
// to whether the IFC checker accepted the program; verdicts that do not
// settle it (generator bugs, runtime errors) are absent.
var verdictAccepts = func() map[string]bool {
	m := map[string]bool{}
	for v := difftest.Verdict(0); v < difftest.NumVerdicts; v++ {
		switch v {
		case difftest.Sound, difftest.SoundnessViolation:
			m[v.String()] = true
		case difftest.GeneratorBug, difftest.RuntimeError:
		default:
			m[v.String()] = false
		}
	}
	return m
}()

// generated is one freshly generated program of a campaign, with the verdict
// the campaign gave it ("" for a program of the same generator beyond the
// campaign's jobs).
type generated struct {
	seed, idx int64
	// coin is set when the campaign drew its mutation coin from the index's
	// rng before generating.
	coin    bool
	verdict string
}

// source regenerates the program from the index's rng.
func (g generated) source(w *campaignWorkload) string {
	rng := rand.New(rand.NewSource(g.seed + g.idx))
	if g.coin {
		rng.Float64()
	}
	return gen.Random(rng, w.gen)
}

// latencyWindow is how many generated programs one check-latency window
// checks; a run checks at least ten windows.
const latencyWindow = 1000

// latencyWindows collects the check latencies of a campaign run, measured in
// windows spread over the run.
type latencyWindows struct {
	lats    []float64
	windows int
}

// measure times one window: each program's verdict through the public
// checker path, as cmd/p4bid runs it. Programs the campaign judged must get
// the IFC verdict it gave them.
func (lw *latencyWindows) measure(res *result, w *campaignWorkload, lat repro.Lattice, programs []generated) {
	runtime.GC() // start from a collected heap, not the campaigns' garbage
	lw.windows++
	// Each check is timed on the checking thread's CPU clock (see clock.go).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, g := range programs {
		src := g.source(w)
		t0 := threadCPU()
		prog, err := repro.Parse("gen.p4", src)
		var base *repro.BaseResult
		var ifc *repro.Result
		if err == nil {
			base = repro.CheckBase(prog)
			ifc = repro.Check(prog, lat)
		}
		lw.lats = append(lw.lats, float64((threadCPU()-t0).Nanoseconds())/1e3)
		if accepts, settled := verdictAccepts[g.verdict]; settled {
			res.attempted++
			if err != nil || !base.OK || ifc.OK != accepts {
				res.failed++
			}
		}
	}
}

// window picks latencyWindow programs evenly from a campaign's freshly
// generated ones. When it has fewer, it tops them up, unjudged, with the
// generator's programs that follow the campaign's index range from seed.
func window(w *campaignWorkload, seed int64, fresh []generated) []generated {
	if len(fresh) >= latencyWindow {
		out := make([]generated, latencyWindow)
		for i := range out {
			out[i] = fresh[i*len(fresh)/latencyWindow]
		}
		return out
	}
	out := append([]generated(nil), fresh...)
	for k := int64(0); len(out) < latencyWindow; k++ {
		out = append(out, generated{seed: seed, idx: int64(w.jobs) + k})
	}
	return out
}

func runCampaignWorkload(ctx context.Context, w campaignWorkload, seed int64, d time.Duration, traced bool, work string) (*result, error) {
	if traced {
		return traceCampaign(ctx, &w, seed, work)
	}
	lat, err := repro.LatticeByName(w.gen.Lattice)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var setups []float64
	for i := 0; i < campaignSetups; i++ {
		t0, s0 := time.Now(), stolen()
		if err := setupCampaign(ctx, &w, filepath.Join(work, "setup"), campaignSeed(seed, 0, w.jobs)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0, s0).Seconds())
	}

	var firsts []float64
	var analyzed int
	var wall, stream float64
	var lw latencyWindows
	var newF, dup, minimized, saved int
	start, steal0 := time.Now(), stolen()
	// Campaigns run back to back while the next one, as long as the last,
	// still fits in the run's time; there is always at least one.
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= d; i++ {
		t0 := time.Now()
		dir := filepath.Join(work, fmt.Sprintf("campaign-%d", i))
		cs := campaignSeed(seed, i, w.jobs)
		run, err := runCampaign(ctx, &w, dir, cs)
		if err != nil {
			return nil, err
		}
		rep := run.rep
		res.attempted += rep.Analyzed
		res.failed += defects(rep)
		if run.dropped > 0 {
			res.broken = append(res.broken, fmt.Sprintf("campaign %d dropped %d events", i, run.dropped))
		}
		analyzed += rep.Analyzed
		wall += run.wall.Seconds()
		stream += run.streamS()
		if !run.firstFinding.IsZero() {
			firsts = append(firsts, run.firstS())
		}
		newF, dup, minimized, saved = newF+rep.NewFindings, dup+rep.DupFindings, minimized+rep.Minimized, saved+rep.BytesSaved
		for _, f := range rep.Findings {
			res.attempted++
			if !findingVerdictOK(&f, lat) {
				res.failed++
			}
			if judged, ok := rejudge(&f, lat); judged {
				res.attempted++
				if !ok {
					res.failed++
				}
			}
		}
		// Time to a verdict for one program of the campaign's own input
		// distribution, a window after each campaign, so that a burst of
		// outside load hits few windows. Which indices generated without a
		// mutation attempt follows from each index's first draw; those
		// programs are regenerable.
		pooled := w.mutation && rep.SeedPoolSize > 0
		var fresh []generated
		for idx := int64(0); idx < int64(w.jobs); idx++ {
			rng := rand.New(rand.NewSource(cs + idx))
			if !pooled || rng.Float64() >= mutateFrac {
				fresh = append(fresh, generated{seed: cs, idx: idx, coin: pooled, verdict: run.classes[idx]})
			}
		}
		lw.measure(res, &w, lat, window(&w, cs, fresh))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	// Runs of fewer campaigns than windows take the rest, unjudged, from the
	// generator's programs beyond the campaigns they ran.
	for k := lw.windows; k < windows; k++ {
		lw.measure(res, &w, lat, window(&w, campaignSeed(seed, k, w.jobs), nil))
	}
	if len(firsts) == 0 {
		return nil, fmt.Errorf("no campaign persisted a finding")
	}
	res.note("%s: %d campaigns of %d jobs in %.1f s, %.2f s of it stolen by the hypervisor; first findings after %.3v s",
		w.name, len(firsts), w.jobs, time.Since(start).Seconds(), (stolen() - steal0).Seconds(), firsts)
	res.note("findings (completion-order dependent, not compared): %d new, %d dup, %d minimized, %d bytes saved",
		newF, dup, minimized, saved)

	res.add("setup_s", median(setups), "s")
	n := len(lw.lats)
	res.add("check_p50_us", quantile(lw.lats, 0.50), "us")
	res.add("check_p99_us", quantile(lw.lats, 0.99), "us")
	res.note("check latencies: %d checks in %d windows, %d above the p99", n, lw.windows, n-int(0.99*float64(n)))
	// The rates are totals over the run's campaigns, so that they rest on
	// every program the run analyzed; the time to the first finding is the
	// median over its campaigns.
	res.add("checks_per_s", float64(analyzed)/stream, "1/s")
	res.add("jobs_per_s", float64(analyzed)/wall, "1/s")
	res.add("first_finding_s", median(firsts), "s")
	return res, nil
}

// findingVerdictOK re-checks a persisted finding through the public checker
// path against its class: programs in a rejection class are base-accepted,
// IFC-rejected, and cite the rule the finding recorded.
func findingVerdictOK(f *repro.CampaignFinding, lat repro.Lattice) bool {
	if f.Class == campaign.ClassParserDisagreement {
		return true // a frontend finding; its verdict is not the point
	}
	prog, err := repro.Parse("finding.p4", f.Source)
	if err != nil || !repro.CheckBase(prog).OK {
		return false
	}
	ifc := repro.Check(prog, lat)
	if !rejectedClasses[string(f.Class)] {
		return ifc.OK
	}
	if ifc.OK {
		return false
	}
	for _, d := range ifc.Diags {
		if d.Rule != "" {
			return d.Rule == f.Rule
		}
	}
	return f.Rule == ""
}

// rejudge re-runs a persisted finding's NI verdict on the tree-walking
// interpreter, which shares no code with the compiled engine under test,
// using the recorded NI seed and the campaign's budget. Witnessed findings
// must reproduce their witness; clean ones must stay witness-free, except
// secret-exhaustive ones: their clean verdict covers only the public
// states the exhaustive oracle probed, so a sampled witness elsewhere is
// not a contradiction and the interpreter must instead agree with the
// compiled engine on the same samples. judged is false for classes the
// re-judge does not apply to (defects, already counted, and parser
// disagreements).
func rejudge(f *repro.CampaignFinding, lat lattice.Lattice) (judged, ok bool) {
	switch f.Class {
	case campaign.ClassRejectedClean, campaign.ClassProvedImprecise, campaign.ClassSecretExhausted,
		campaign.ClassUnderTested, campaign.ClassRejectedWitnessed:
	default:
		return false, true
	}
	prog, err := parser.Parse("finding.p4", f.Source)
	if err != nil {
		return true, false
	}
	ifcOK := core.Check(prog, lat).OK
	interp, err := sampleNI(prog, lat, ifcOK, f.NISeed, true)
	if err != nil {
		return true, false
	}
	switch f.Class {
	case campaign.ClassRejectedWitnessed:
		return true, len(interp) > 0 && interp[0].String() == f.Detail
	case campaign.ClassSecretExhausted:
		compiled, err := sampleNI(prog, lat, ifcOK, f.NISeed, false)
		return true, err == nil && sameViolations(interp, compiled)
	default:
		return true, len(interp) == 0
	}
}

// sampleNI runs the campaign's sampled NI check — its observer sweep, trial
// split and adaptive escalation for rejected programs — on one engine.
func sampleNI(prog *repro.Program, lat lattice.Lattice, ifcOK bool, seed int64, interp bool) ([]ni.Violation, error) {
	obs := observersFor(lat)
	oracle := sampler(len(obs), ifcOK)
	var out []ni.Violation
	for _, o := range obs {
		r, err := oracle.Check(&ni.Experiment{Prog: prog, Lat: lat, Observer: o, Interp: interp}, seed)
		if err != nil {
			return out, err
		}
		out = append(out, r.Violations...)
		if len(out) > 0 {
			break
		}
	}
	return out, nil
}

func sameViolations(a, b []ni.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sampler is the pipeline's per-observer sampling oracle: the campaign's
// budget split across the observer sweep, escalating only for IFC-rejected
// programs.
func sampler(observers int, ifcOK bool) ni.Oracle {
	baseT := (campaignTrials + observers - 1) / observers
	maxT := (campaignTrialsMax + observers - 1) / observers
	if maxT > baseT && !ifcOK {
		return ni.Adaptive{Min: baseT, Max: maxT}
	}
	return ni.Randomized{Trials: baseT}
}

// observersFor is the pipeline's observer sweep: every lattice element but
// the top, or the bottom alone for a one-element lattice.
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
