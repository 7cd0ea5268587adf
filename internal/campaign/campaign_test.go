package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/pipeline"
)

// smallGen keeps test campaigns fast: smaller programs shrink quicker.
func smallGen() gen.Config {
	return gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}
}

// readKeys collects the dedup keys of every finding persisted under dir.
func readKeys(t *testing.T, dir string) map[string]corpus.Meta {
	t.Helper()
	keys := map[string]corpus.Meta{}
	entries, err := os.ReadDir(filepath.Join(dir, "findings"))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") || e.Name() == "index.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, "findings", e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		var m corpus.Meta
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode %s: %v", e.Name(), err)
		}
		keys[m.Key] = m
	}
	return keys
}

// classifySource reruns the full stage stack on one source and returns its
// difftest verdict, for validating that persisted findings reproduce.
func classifySource(t *testing.T, src string, niSeed int64, trials, max int) difftest.Verdict {
	t.Helper()
	sum, err := pipeline.Run(context.Background(),
		[]pipeline.Job{{Name: "replay.p4", Source: src, Lat: lattice.TwoPoint()}},
		pipeline.Options{Workers: 1, NI: pipeline.NIAll, Budget: pipeline.Budget{Trials: trials, TrialsMax: max}, NISeed: niSeed})
	if err != nil || len(sum.Results) != 1 {
		t.Fatalf("replay failed: %v", err)
	}
	v, _ := difftest.Classify(&sum.Results[0])
	return v
}

// TestCampaignTwoRunDemo is the end-to-end acceptance demo: run 1 persists
// deduplicated, minimized findings with verdict metadata; a re-run over
// the same window skips every known finding; the next window continues
// into fresh indices over the same corpus.
func TestCampaignTwoRunDemo(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		Window:    Window{Lo: 0, Hi: 60},
		Spec:      Spec{Seed: 42, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 8}, Minimize: true},
		Workers:   2,
		CorpusDir: dir,
	}

	// Run 1: fresh corpus.
	rep1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if !rep1.OK() {
		t.Fatalf("run 1 found implementation defects:\n%s", FormatReport(rep1))
	}
	if rep1.NewFindings == 0 {
		t.Fatal("run 1 persisted no findings; the demo needs at least one")
	}
	if rep1.Window != base.Window || rep1.Analyzed != 60 {
		t.Fatalf("run 1 covered %+v (%d analyzed), want [0, 60)", rep1.Window, rep1.Analyzed)
	}

	keys := readKeys(t, dir)
	if len(keys) != rep1.NewFindings {
		t.Errorf("corpus holds %d findings, report says %d new", len(keys), rep1.NewFindings)
	}
	// Metadata must be complete enough to replay and to audit.
	for k, m := range keys {
		if m.Key != k || m.Class == "" || m.Gen != base.Gen || m.GenSeed != 42+m.Index {
			t.Errorf("incomplete metadata for %s: %+v", k, m)
		}
		if m.Bytes > m.OriginalBytes {
			t.Errorf("finding %s grew: %d from %d bytes", k, m.Bytes, m.OriginalBytes)
		}
	}

	// Minimization must have produced at least one strictly smaller
	// program that still reproduces its verdict class.
	verifiedMin := false
	for _, f := range rep1.Findings {
		if !f.Minimized || f.Class == ClassParserDisagreement {
			continue
		}
		if len(f.Source) >= f.OriginalBytes {
			t.Fatalf("finding %s marked minimized but not smaller", f.Key)
		}
		if got := classifySource(t, f.Source, f.NISeed, 2, 8); got != f.Verdict {
			t.Errorf("minimized finding %s classifies as %v, want %v:\n%s", f.Key, got, f.Verdict, f.Source)
		}
		verifiedMin = true
		break
	}
	if !verifiedMin {
		t.Error("no finding was minimized; generated findings should carry dead weight")
	}

	// Run 2a: the same window again — every finding is already in the
	// corpus, so nothing new lands.
	rep2a, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("run 2a: %v", err)
	}
	if rep2a.NewFindings != 0 {
		t.Errorf("re-covering the same window persisted %d new findings, want 0", rep2a.NewFindings)
	}
	if rep2a.KnownFindings == 0 {
		t.Error("re-covering the same window skipped no known findings")
	}
	if got := len(readKeys(t, dir)); got != len(keys) {
		t.Errorf("corpus grew from %d to %d findings on a repeat window", len(keys), got)
	}

	// Run 2b: the next window — fresh indices over the same corpus.
	next := base
	next.Window = Window{Lo: 60, Hi: 120}
	rep2b, err := Run(context.Background(), next)
	if err != nil {
		t.Fatalf("run 2b: %v", err)
	}
	if rep2b.Window != next.Window || rep2b.Analyzed != 60 {
		t.Fatalf("run 2b covered %+v (%d analyzed), want [60, 120)", rep2b.Window, rep2b.Analyzed)
	}
	for _, f := range rep2b.Findings {
		if f.Index < 60 || f.Index >= 120 {
			t.Errorf("run 2b finding at index %d, outside its window", f.Index)
		}
	}
}

// TestCampaignWindowUnion: covering [0, n) as a set of smaller windows
// finds the same dedup-key set and verdict counts as one run over [0, n)
// — the partition-exactness the fleet coordinator builds on.
func TestCampaignWindowUnion(t *testing.T) {
	const n = 90
	base := Config{
		Spec:    Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 4}, MaxPerClass: -1},
		Workers: 2,
	}

	whole := t.TempDir()
	wcfg := base
	wcfg.Window = Window{Lo: 0, Hi: n}
	wcfg.CorpusDir = whole
	repWhole, err := Run(context.Background(), wcfg)
	if err != nil {
		t.Fatal(err)
	}

	var winAnalyzed int
	var winCounts [difftest.NumVerdicts]int
	union := map[string]bool{}
	dir := t.TempDir()
	for _, w := range []Window{{0, 30}, {30, 35}, {35, 90}} {
		cfg := base
		cfg.Window = w
		cfg.CorpusDir = dir
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("window [%d, %d): %v", w.Lo, w.Hi, err)
		}
		if rep.Window != w {
			t.Errorf("window [%d, %d) reported %+v", w.Lo, w.Hi, rep.Window)
		}
		winAnalyzed += rep.Analyzed
		for v, c := range rep.Counts {
			winCounts[v] += c
		}
	}
	for k := range readKeys(t, dir) {
		union[k] = true
	}

	if winAnalyzed != repWhole.Analyzed || winAnalyzed != n {
		t.Errorf("windows analyzed %d programs, the whole span %d, want %d", winAnalyzed, repWhole.Analyzed, n)
	}
	if winCounts != repWhole.Counts {
		t.Errorf("window verdict counts %v != whole-span %v", winCounts, repWhole.Counts)
	}
	wholeKeys := readKeys(t, whole)
	if len(union) != len(wholeKeys) {
		t.Errorf("window corpus union has %d findings, the whole span %d", len(union), len(wholeKeys))
	}
	for k := range wholeKeys {
		if !union[k] {
			t.Errorf("finding %s missing from the window union", k)
		}
	}
}

// TestConfigSpecFieldsNotShadowed: every Spec field, Budget's included,
// resolves through Config to the embedded Spec. A field of the same name
// declared on Config would shadow the Spec's value without a compile
// error — a Minimize set on the Spec would then minimize nothing.
func TestConfigSpecFieldsNotShadowed(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	embed, _ := ct.FieldByName("Spec")
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		got, ok := ct.FieldByName(f.Name)
		if !ok || got.Index[0] != embed.Index[0] {
			t.Errorf("Config.%s does not resolve to the embedded Spec (index %v)", f.Name, got.Index)
		}
	}
}

// TestCampaignWindowValidation: the window is required and must be
// non-empty and non-negative.
func TestCampaignWindowValidation(t *testing.T) {
	base := Config{Spec: Spec{Gen: smallGen(), Budget: pipeline.Budget{Trials: 1}}}
	for name, cfg := range map[string]Config{
		"missing":  {},
		"empty":    {Window: Window{Lo: 5, Hi: 5}},
		"inverted": {Window: Window{Lo: 9, Hi: 3}},
		"negative": {Window: Window{Lo: -1, Hi: 3}},
	} {
		cfg.Gen = base.Gen
		cfg.Trials = base.Trials
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: invalid window config accepted", name)
		}
	}
}

// TestCampaignCancellation: mid-run cancellation returns the context error
// and a report marked Aborted that covers only part of the window.
func TestCampaignCancellation(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, Config{
		Window:    Window{Lo: 0, Hi: 5000},
		Spec:      Spec{Seed: 3, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2}},
		CorpusDir: dir,
	})
	if err == nil || !rep.Aborted {
		t.Fatalf("cancelled campaign returned err=%v aborted=%v", err, rep.Aborted)
	}
	if rep.Analyzed >= 5000 {
		t.Errorf("aborted run analyzed the whole window (%d programs)", rep.Analyzed)
	}
	if !strings.Contains(FormatReport(rep), "ABORTED") {
		t.Errorf("aborted report does not say ABORTED:\n%s", FormatReport(rep))
	}
}

// TestCampaignNoCorpusDir: without a corpus dir the campaign still runs,
// dedups within the run, and keeps findings in memory.
func TestCampaignNoCorpusDir(t *testing.T) {
	rep, err := Run(context.Background(), Config{Window: Window{Lo: 0, Hi: 40}, Spec: Spec{Seed: 9, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed != 40 {
		t.Errorf("analyzed %d, want 40", rep.Analyzed)
	}
	for _, f := range rep.Findings {
		if f.Path != "" {
			t.Errorf("finding %s claims a path without a corpus dir", f.Key)
		}
	}
	if rep.KnownFindings != 0 {
		t.Errorf("known findings %d without a corpus", rep.KnownFindings)
	}
}

// TestCampaignFindsNoDefects is the headline differential test: a
// campaign over generated programs must find zero soundness violations
// (no IFC-accepted program interferes), zero generator bugs (every
// generated program parses and base-checks), zero runtime errors, and
// zero parser roundtrip disagreements. It runs 1000 programs, 100 under
// -short, at a flat 8-trial NI budget.
func TestCampaignFindsNoDefects(t *testing.T) {
	n := int64(1000)
	if testing.Short() {
		n = 100
	}
	rep, err := Run(context.Background(), Config{
		Window: Window{Lo: 0, Hi: n},
		Spec:   Spec{Seed: 20260728, Budget: pipeline.Budget{Trials: 8, TrialsMax: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("campaign found implementation defects:\n%s", FormatReport(rep))
	}
	if got := rep.Counts[difftest.SoundnessViolation]; got != 0 {
		t.Errorf("%d soundness violations — Theorem 4.3 falsified by the implementation", got)
	}
	if got := rep.ParserDisagreements; got != 0 {
		t.Errorf("%d parser roundtrip disagreements", got)
	}
	if rep.Counts[difftest.Sound] == 0 {
		t.Error("no program was IFC-accepted — the generator is not exercising the accept path")
	}
	// The NI harness must be demonstrating rejections are real at least
	// sometimes; an all-clean rejected population would mean the trials
	// never catch anything.
	if rep.Counts[difftest.RejectedWitnessed] == 0 {
		t.Error("no rejected program had interference witnessed — NI trials are toothless")
	}
	t.Logf("\n%s", FormatReport(rep))
}

// TestCampaignDeterministicFindings: a sequential run (one worker) and a
// concurrent one (eight workers finishing jobs, and then minimizing
// findings, in whatever order the scheduler picks) over the same window,
// with a per-class cap that binds, reach the same verdict counts and
// process the same findings in the same order — the same Findings (key,
// source, minimization, rule, detail), dedup tallies, corpus files, log
// text, and finding-event sequence.
func TestCampaignDeterministicFindings(t *testing.T) {
	type outcome struct {
		rep      *Report
		files    string
		log      string
		findings []int64 // KindFinding event indices, in emission order
	}
	run := func(workers int) outcome {
		dir := t.TempDir()
		var log strings.Builder
		var o outcome
		rep, err := Run(context.Background(), Config{
			Window:    Window{Lo: 0, Hi: 200},
			Spec:      Spec{Seed: 17, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 64}, Minimize: true, MaxPerClass: 15},
			Workers:   workers,
			CorpusDir: dir,
			Log:       &log,
			// No lock: events come from the calling goroutine only, which
			// -race checks.
			Events: func(ev events.Event) {
				if ev.Kind == events.KindFinding {
					o.findings = append(o.findings, ev.Index)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(dir, "findings"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		o.rep, o.files, o.log = rep, strings.Join(names, ","), log.String()
		return o
	}
	keysOf := func(r *Report) string {
		var keys []string
		for _, f := range r.Findings {
			keys = append(keys, f.Key)
		}
		return strings.Join(keys, ",")
	}
	oa, ob := run(1), run(8)
	a, b := oa.rep, ob.rep
	if a.CappedFindings == 0 {
		t.Fatal("the per-class cap never bound; the test premise is broken")
	}
	if a.Minimized == 0 {
		t.Fatal("nothing minimized; the test premise is broken")
	}
	if a.Counts != b.Counts {
		t.Errorf("verdict counts depend on worker count: %v vs %v", a.Counts, b.Counts)
	}
	if keysOf(a) != keysOf(b) {
		t.Errorf("finding key sequences differ:\n%s\n%s", keysOf(a), keysOf(b))
	}
	if a.NewFindings != b.NewFindings || a.DupFindings != b.DupFindings || a.KnownFindings != b.KnownFindings ||
		a.Minimized != b.Minimized || a.BytesSaved != b.BytesSaved {
		t.Errorf("new/dup/known/minimized/saved %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			a.NewFindings, a.DupFindings, a.KnownFindings, a.Minimized, a.BytesSaved,
			b.NewFindings, b.DupFindings, b.KnownFindings, b.Minimized, b.BytesSaved)
	}
	if len(a.Findings) == len(b.Findings) {
		for i := range a.Findings {
			fa, fb := a.Findings[i], b.Findings[i]
			if fa.Source != fb.Source || fa.Minimized != fb.Minimized || fa.OriginalBytes != fb.OriginalBytes ||
				fa.Rule != fb.Rule || fa.Detail != fb.Detail {
				t.Errorf("finding %d (index %d) differs:\n%+v\n%+v", i, fa.Index, fa, fb)
			}
		}
	}
	if oa.files != ob.files {
		t.Errorf("corpus contents differ:\n%s\n%s", oa.files, ob.files)
	}
	if oa.log != ob.log {
		t.Errorf("log text differs:\n%s\n%s", oa.log, ob.log)
	}
	if fmt.Sprint(oa.findings) != fmt.Sprint(ob.findings) {
		t.Errorf("finding event sequences differ:\n%v\n%v", oa.findings, ob.findings)
	}
	if len(oa.findings) != a.NewFindings {
		t.Errorf("%d finding events for %d new findings", len(oa.findings), a.NewFindings)
	}
	for i := 1; i < len(a.Findings); i++ {
		if a.Findings[i].Index < a.Findings[i-1].Index {
			t.Errorf("findings out of index order: %d after %d", a.Findings[i].Index, a.Findings[i-1].Index)
		}
	}
}

// TestCampaignFinalizeCancellation: a cancel that lands while findings are
// being minimized (here: at the first finding event) stops the shrinks,
// yet Run still returns with every collected finding committed, and no
// minimizing goroutine outlives it.
func TestCampaignFinalizeCancellation(t *testing.T) {
	cfg := Config{
		Window:  Window{Lo: 0, Hi: 120},
		Spec:    Spec{Seed: 17, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 64}, Minimize: true, MaxPerClass: 15},
		Workers: 2,
	}
	full, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the cancel at most the committed finding and the workers'
	// in-flight ones can come out minimized.
	if full.Minimized <= cfg.Workers+1 {
		t.Fatalf("%d findings minimized; the test needs more than the cancel can leave in flight", full.Minimized)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Events = func(ev events.Event) {
		if ev.Kind == events.KindFinding {
			cancel()
		}
	}
	type result struct {
		rep *Report
		err error
	}
	ret := make(chan result, 1)
	go func() {
		rep, err := Run(ctx, cfg)
		ret <- result{rep, err}
	}()
	var r result
	select {
	case r = <-ret:
	case <-time.After(2 * time.Minute):
		t.Fatal("Run did not return after a cancel during finalize")
	}
	if r.err != nil {
		t.Fatalf("cancel after the stream drained: %v", r.err)
	}
	if r.rep.Analyzed != full.Analyzed {
		t.Errorf("analyzed %d, uncancelled run %d", r.rep.Analyzed, full.Analyzed)
	}
	sum := func(r *Report) int { return r.NewFindings + r.DupFindings + r.KnownFindings }
	if sum(r.rep) != sum(full) {
		t.Errorf("new+dup+known = %d, uncancelled run %d: collected findings were lost", sum(r.rep), sum(full))
	}
	if r.rep.Minimized >= full.Minimized {
		t.Errorf("minimized %d after the cancel, uncancelled run %d: shrinking did not stop", r.rep.Minimized, full.Minimized)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, frame := range []string{"campaign.(*engine).minimize", "campaign.(*engine).finalize", "repro/internal/shrink."} {
		if strings.Contains(stacks, frame) {
			t.Errorf("a goroutine in %s outlived Run:\n%s", frame, stacks)
		}
	}
}
