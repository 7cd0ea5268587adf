package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/resolve"
)

// The typecheck workload is the paper's use case: a programmer checking one
// program at a time, as cmd/p4bid does, in a closed loop with one client.
// One check is repro.Parse, repro.CheckBase and repro.Check; its verdict is
// compared with the program's known answer.

// Program sizes and lattice heights the workload covers. They are fixed so
// that runs on different seeds check the same population; the seed orders
// it.
var (
	synthTables  = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	chainHeights = []int{2, 3, 4, 6, 8, 12, 16, 24, 32}
)

// caseStudyRule is the typing rule each Section 5 case study's buggy
// variant must cite.
var caseStudyRule = map[string]string{
	"Topology": "T-Assign",
	"D2R":      "T-Assign",
	"Cache":    "T-TblDecl",
	"App":      "T-TblDecl",
	"Lattice":  "T-Assign",
	"NetChain": "T-Assign",
	"Stateful": "T-Index",
}

// table1 names the case studies of the paper's Table 1, whose annotated
// and unannotated variants give the IFC-over-base overhead ratio.
var table1 = map[string]bool{"D2R": true, "App": true, "Lattice": true, "Topology": true, "Cache": true}

// tcInput is one program with its known verdict.
type tcInput struct {
	name string
	src  string
	lat  repro.Lattice
	// accept is the IFC verdict the program must get; the base checker
	// must accept every input.
	accept bool
	// rule is the typing rule a rejection must cite: by any diagnostic for
	// the case studies, by the first rule-bearing one (the rule a corpus
	// entry records) when firstRule is set.
	rule      string
	firstRule bool
	// pair marks a Table 1 variant: "annotated" (the fixed program) or
	// "unannotated".
	pair string
}

// loadTypecheckInputs builds the workload's program set.
func loadTypecheckInputs() ([]tcInput, error) {
	var in []tcInput
	for _, cs := range repro.CaseStudies() {
		rule, ok := caseStudyRule[cs.Name]
		if !ok {
			return nil, fmt.Errorf("case study %s has no expected rule", cs.Name)
		}
		lat := cs.Lattice()
		fixedPair, unPair := "", ""
		if table1[cs.Name] {
			fixedPair, unPair = "annotated", "unannotated"
		}
		in = append(in,
			tcInput{name: cs.FileName(repro.Buggy), src: cs.Source(repro.Buggy), lat: lat, rule: rule},
			tcInput{name: cs.FileName(repro.Fixed), src: cs.Source(repro.Fixed), lat: lat, accept: true, pair: fixedPair},
			tcInput{name: cs.FileName(repro.Unannotated), src: cs.Source(repro.Unannotated), lat: lat, accept: true, pair: unPair})
	}
	for _, n := range synthTables {
		in = append(in, tcInput{name: fmt.Sprintf("synth-%d.p4", n), src: gen.Synth(n, 4, 8), lat: repro.TwoPoint(), accept: true})
	}
	for _, h := range chainHeights {
		lat, err := repro.LatticeByName(fmt.Sprintf("chain:%d", h))
		if err != nil {
			return nil, err
		}
		in = append(in, tcInput{name: fmt.Sprintf("chain-%d.p4", h), src: gen.SynthChainLabels(h), lat: lat, accept: true})
	}
	reg, err := loadRegressionInputs()
	if err != nil {
		return nil, err
	}
	return append(in, reg...), nil
}

// rejectedClasses are the corpus classes whose programs the IFC checker
// rejects.
var rejectedClasses = map[string]bool{
	"rejected-clean": true, "rejected-witnessed": true, "proved-imprecise": true,
	"secret-exhaustive": true, "under-tested": true,
}

// loadRegressionInputs reads the regression corpus's finding pairs
// directly (opening it as a corpus would rewrite its index): each entry
// must get the verdict and cited rule its metadata records.
func loadRegressionInputs() ([]tcInput, error) {
	metas, err := filepath.Glob(filepath.Join(seedCorpusDir, "findings", "*.json"))
	if err != nil {
		return nil, err
	}
	var in []tcInput
	for _, path := range metas {
		if filepath.Base(path) == "index.json" {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var m repro.CorpusMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		srcPath := strings.TrimSuffix(path, ".json") + ".p4"
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		lat, err := repro.LatticeByName(m.Gen.Lattice)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		t := tcInput{name: filepath.Base(srcPath), src: string(src), lat: lat, firstRule: true}
		switch class := string(m.Class); {
		case rejectedClasses[class]:
			t.rule = m.CitedRule()
		case class == "sound" || class == "soundness-violation":
			t.accept = true
		default:
			return nil, fmt.Errorf("%s: class %q has no typecheck verdict", path, class)
		}
		in = append(in, t)
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("no regression entries under %s", seedCorpusDir)
	}
	return in, nil
}

// verdictOK reports whether the verdicts match the input's known answer.
func (t *tcInput) verdictOK(base *repro.BaseResult, res *repro.Result) bool {
	if !base.OK || res.OK != t.accept {
		return false
	}
	if t.accept {
		return true
	}
	for _, d := range res.Diags {
		if d.Rule == "" {
			continue
		}
		if d.Rule == t.rule {
			return true
		}
		if t.firstRule {
			return false
		}
	}
	return false
}

// check is one verdict through the public API: the operation the workload
// times.
func (t *tcInput) check() (*repro.BaseResult, *repro.Result, error) {
	prog, err := repro.Parse(t.name, t.src)
	if err != nil {
		return nil, nil, err
	}
	base := repro.CheckBase(prog)
	return base, repro.Check(prog, t.lat), nil
}

// typecheckSetups is how many times a run sets the workload up; setup_s is
// the median.
const typecheckSetups = 5

// setupTypecheck builds the inputs and warms up with one pass of checks;
// the timed loop judges the verdicts.
func setupTypecheck() ([]tcInput, error) {
	in, err := loadTypecheckInputs()
	if err != nil {
		return nil, err
	}
	for i := range in {
		in[i].check()
	}
	return in, nil
}

func runTypecheck(ctx context.Context, seed int64, d time.Duration, traced bool, _ string) (*result, error) {
	// Set-up and checks run on one locked thread, timed on its CPU clock
	// (see clock.go).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var setups []time.Duration
	var in []tcInput
	for i := 0; i < typecheckSetups; i++ {
		t0 := threadCPU()
		var err error
		if in, err = setupTypecheck(); err != nil {
			return nil, err
		}
		setups = append(setups, threadCPU()-t0)
	}
	if traced {
		return traceTypecheck(ctx, in, d)
	}
	res := &result{}
	// The closed loop checks the whole set in each pass, in an order the
	// seed's rng draws afresh per pass.
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, len(in))
	for i := range order {
		order[i] = i
	}
	var p50s, p99s, rates, firsts []float64
	checks, minWindow := 0, 0
	start0, steal0 := time.Now(), stolen()
	for w := 0; w < windows && ctx.Err() == nil; w++ {
		var lat, rejLat []float64
		var busy time.Duration
		start := time.Now()
		for len(lat) == 0 || time.Since(start) < d/windows {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				t := &in[i]
				t0 := threadCPU()
				base, ifc, err := t.check()
				el := threadCPU() - t0
				busy += el
				res.attempted++
				if err != nil || !t.verdictOK(base, ifc) {
					res.failed++
				}
				lat = append(lat, float64(el.Nanoseconds())/1e3)
				if !t.accept {
					rejLat = append(rejLat, el.Seconds())
				}
			}
		}
		rates = append(rates, float64(len(lat))/busy.Seconds())
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		// The finding a programmer waits for is a rejection's diagnostic.
		firsts = append(firsts, median(rejLat))
		if w == 0 || len(lat) < minWindow {
			minWindow = len(lat)
		}
		checks += len(lat)
	}
	res.note("typecheck: %d programs, %d checks in %d windows of at least %d checks (%d above each window's p99)",
		len(in), checks, len(rates), minWindow, minWindow-int(0.99*float64(minWindow)))
	res.note("%.1f s, %.2f s of it stolen by the hypervisor", time.Since(start0).Seconds(), (stolen() - steal0).Seconds())
	res.add("setup_s", median(durations(setups)), "s")
	res.add("check_p50_us", median(p50s), "us")
	res.add("check_p99_us", median(p99s), "us")
	res.add("checks_per_s", median(rates), "1/s")
	// One job is one checked program here, so the two rates coincide.
	res.add("jobs_per_s", median(rates), "1/s")
	res.add("first_finding_s", median(firsts), "s")
	return res, nil
}

// tracedCheck is one check through the layers' own entry points, each call
// under a span. The resolve call is the pipeline's separate
// type-declaration pass; core.Check resolves again internally, as it does
// behind repro.Check.
func tracedCheck(tr *tracer, t *tcInput, job int64) bool {
	root := tr.begin("check", job)
	defer tr.end(root)
	id := tr.begin("parse", job)
	prog, err := parser.Parse(t.name, t.src)
	tr.end(id)
	if err != nil {
		return false
	}
	id = tr.begin("resolve", job)
	var diags diag.List
	resolve.New(t.lat, &diags).CollectTypeDecls(prog)
	tr.end(id)
	id = tr.begin("basecheck", job)
	base := basecheck.Check(prog)
	tr.end(id)
	id = tr.begin("ifc", job)
	res := core.Check(prog, t.lat)
	tr.end(id)
	return diags.Err() == nil && t.verdictOK(base, res)
}

// traceTypecheck splits the time between untraced and traced passes of the
// same calls (the difference is the tracing overhead), then checks the
// traced per-stage sums against the pipeline's own stage clock over the same
// programs.
func traceTypecheck(ctx context.Context, in []tcInput, d time.Duration) (*result, error) {
	res := &result{}
	passes := func(tr *tracer, budget time.Duration) (int, time.Duration) {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < budget {
			for i := range in {
				res.attempted++
				if !tracedCheck(tr, &in[i], int64(i)) {
					res.failed++
				}
			}
			n++
		}
		return n, time.Since(start)
	}
	offN, offWall := passes(nil, d*2/5)
	tr := newTracer()
	onN, onWall := passes(tr, d*2/5)
	offPass := offWall / time.Duration(offN)
	onPass := onWall / time.Duration(onN)

	// The pipeline times the same four stages with its own clock
	// (pipeline_stage_seconds); run it over the same programs, NI off.
	reg := metrics.NewRegistry()
	jobs := make([]pipeline.Job, len(in))
	for i := range in {
		jobs[i] = pipeline.Job{Name: in[i].name, Source: in[i].src, Lat: in[i].lat}
	}
	pipeN := 0
	for start := time.Now(); pipeN == 0 || time.Since(start) < d/5; pipeN++ {
		if _, err := pipeline.Run(ctx, jobs, pipeline.Options{Workers: 1, Metrics: reg}); err != nil {
			return nil, err
		}
	}
	st := tr.stats()
	snap := reg.Snapshot()
	var traced, clock []float64
	for _, stage := range stageNames[:4] { // NI is off
		traced = append(traced, st[stage].total.Seconds()*1e3/float64(onN))
		clock = append(clock, histSum(snap, "pipeline_stage_seconds", "stage", stage)*1e3/float64(pipeN))
	}
	maxDev, scale := compareStages(res, traced, clock, "ms/pass")

	var parseBytes int64
	var ifcAnn, baseUn time.Duration
	for _, s := range tr.spans {
		t := &in[s.Job]
		switch s.Name {
		case "parse":
			parseBytes += int64(len(t.src))
		case "ifc":
			if t.pair == "annotated" {
				ifcAnn += time.Duration(s.End - s.Start)
			}
		case "basecheck":
			if t.pair == "unannotated" {
				baseUn += time.Duration(s.End - s.Start)
			}
		}
	}
	l := layers{
		st:            st,
		parseBytes:    parseBytes,
		overheadRatio: ratio(ifcAnn.Seconds(), baseUn.Seconds()),
		overheadS:     (onPass - offPass).Seconds(),
		overheadFrac:  ratio((onPass - offPass).Seconds(), offPass.Seconds()),
		stageMaxDev:   maxDev,
		stageScale:    scale,
	}
	res.note("traced %d passes (%v/pass), untraced %d passes (%v/pass)", onN, onPass, offN, offPass)
	l.emit(res)
	return res, writeSpans(tr, "typecheck")
}
