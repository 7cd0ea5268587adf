package main

import (
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/metrics"
)

// Tolerances of the traced run's self-check against the program's own
// clock (pipeline_stage_seconds, exhaust_enumeration_seconds). The traced
// run replays the jobs one at a time, while the session runs two workers
// beside its result consumer and the garbage collector on two cores, so
// every stage costs more per call in the session by a common factor. The
// check therefore holds each stage's share of the stage time to
// shareTolerance (relative), for stages with at least minComparedShare of
// it, and the common factor to within maxScale either way.
const (
	shareTolerance   = 0.3
	minComparedShare = 0.05
	maxScale         = 2.0
	// jobsTolerance bounds the replay's pipeline job count against the
	// session's pipeline_jobs_total: they differ only through shrink replays
	// of findings the two charge the per-class cap to differently.
	jobsTolerance = 0.5
)

// compareStages checks traced per-stage time sums against the clock's,
// stage by stage in stageNames order, and notes both. It returns the
// largest relative deviation of a compared stage's share and the ratio of
// the traced total to the clock's total, and records a failed check in res.
func compareStages(res *result, traced, clock []float64, unit string) (maxDev, scale float64) {
	var tTotal, cTotal float64
	for i := range clock {
		tTotal += traced[i]
		cTotal += clock[i]
	}
	scale = ratio(tTotal, cTotal)
	for i, name := range stageNames[:len(clock)] {
		tShare, cShare := ratio(traced[i], tTotal), ratio(clock[i], cTotal)
		res.note("stage %-9s traced %.4g %s (%.1f%%), pipeline_stage_seconds %.4g %s (%.1f%%)",
			name, traced[i], unit, 100*tShare, clock[i], unit, 100*cShare)
		if cShare >= minComparedShare {
			maxDev = max(maxDev, relDev(tShare, cShare))
		}
	}
	if maxDev > shareTolerance {
		res.broken = append(res.broken, fmt.Sprintf("traced stage shares deviate %.0f%% from pipeline_stage_seconds' (tolerance %.0f%%)", 100*maxDev, 100*shareTolerance))
	}
	if scale < 1/maxScale || scale > maxScale {
		res.broken = append(res.broken, fmt.Sprintf("traced stage time is %.2f× pipeline_stage_seconds' (tolerance %g×)", scale, maxScale))
	}
	return maxDev, scale
}

// stageNames are the pipeline's stages, in order, as its metrics label
// them.
var stageNames = []string{"parse", "resolve", "basecheck", "ifc", "ni"}

// histSum is the sum of one histogram series in a snapshot.
func histSum(s metrics.Snapshot, name string, kv ...string) float64 {
	for _, h := range s.Histograms {
		if h.Name != name || len(h.Labels) != len(kv)/2 {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			match = match && h.Labels[kv[i]] == kv[i+1]
		}
		if match {
			return h.Sum
		}
	}
	return 0
}

// sumStages is the total of pipeline_stage_seconds over every stage.
func sumStages(s metrics.Snapshot) float64 {
	total := 0.0
	for _, st := range stageNames {
		total += histSum(s, "pipeline_stage_seconds", "stage", st)
	}
	return total
}

// relDev is |a-b|/b.
func relDev(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}

// writeSpans writes a traced run's spans next to the build outputs.
func writeSpans(tr *tracer, workload string) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s.jsonl", workload))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layers gathers a traced run's per-layer numbers. Every workload reports
// every per-layer metric; a layer that does no work on a workload reports
// 0, which is the prediction "no change" in its plainest form.
type layers struct {
	st map[string]*layerStat // span aggregates by layer name

	parseBytes    int64
	overheadRatio float64 // core.Check ÷ basecheck.Check over the Table 1 pairs

	mutateCalls, mutateFallbacks int

	niJobs, niWitnessed int // campaign jobs with a sampled oracle check
	niTrials            int
	niTime              float64 // seconds in sampled oracle checks
	niAllocs            uint64

	exJobs, exTotal, exInconclusive int
	exAssignments                   uint64  // over every enumerating check, shrink replays included
	exJobAssignments                float64 // over the campaign jobs alone
	exEnumSeconds                   float64 // exhaust_enumeration_seconds of the traced run
	exAllocs                        uint64  // allocations in enumerating checks

	shrinkTried, shrinkAccepted int
	replayJobFrac               float64

	busyFrac   float64
	stageShare [5]float64

	streamS, finalizeS, cpuBusyFrac float64
	jobs                            int

	overheadS, overheadFrac float64
	stageMaxDev             float64
	stageScale              float64
	jobsDev                 float64
	freshMismatches         int
}

func (l *layers) stat(name string) *layerStat {
	if s := l.st[name]; s != nil {
		return s
	}
	return &layerStat{}
}

// emit adds every per-layer metric to res, in BENCHMARK.json order.
func (l *layers) emit(res *result) {
	parse, core := l.stat("parse"), l.stat("ifc")
	res.add("parser.ns_per_call", perCall(parse.self, parse.calls), "ns")
	res.add("parser.allocs_per_call", ratio(float64(parse.selfAllocs), float64(parse.calls)), "count")
	res.add("parser.kb_per_s", ratio(float64(l.parseBytes)/1024, parse.self.Seconds()), "KB/s")
	res.add("resolve.ns_per_call", perCall(l.stat("resolve").self, l.stat("resolve").calls), "ns")
	res.add("basecheck.ns_per_call", perCall(l.stat("basecheck").self, l.stat("basecheck").calls), "ns")
	res.add("core.ns_per_call", perCall(core.self, core.calls), "ns")
	res.add("core.allocs_per_call", ratio(float64(core.selfAllocs), float64(core.calls)), "count")
	res.add("core.overhead_ratio", l.overheadRatio, "ratio")

	res.add("gen.ns_per_call", perCall(l.stat("gen").self, l.stat("gen").calls), "ns")
	mut := l.stat("mutate")
	res.add("mutate.ns_per_call", perCall(mut.self, mut.calls), "ns")
	res.add("mutate.fallback_frac", ratio(float64(l.mutateFallbacks), float64(l.mutateCalls)), "fraction")

	compile := l.stat("compile")
	res.add("eval.compile_ns_per_call", perCall(compile.self, compile.calls), "ns")
	niStage := compile.total + l.stat("ni").total + l.stat("exhaust").total
	res.add("eval.compile_share", ratio(compile.total.Seconds(), niStage.Seconds()), "fraction")

	res.add("ni.ns_per_trial", ratio(l.niTime*1e9, float64(l.niTrials)), "ns")
	res.add("ni.allocs_per_trial", ratio(float64(l.niAllocs), float64(l.niTrials)), "count")
	res.add("ni.trials_per_job", ratio(float64(l.niTrials), float64(l.niJobs)), "count")
	res.add("ni.witness_frac", ratio(float64(l.niWitnessed), float64(l.niJobs)), "fraction")

	res.add("exhaust.ns_per_assignment", ratio(l.exEnumSeconds*1e9, float64(l.exAssignments)), "ns")
	res.add("exhaust.allocs_per_assignment", ratio(float64(l.exAllocs), float64(l.exAssignments)), "count")
	res.add("exhaust.assignments_per_job", ratio(l.exJobAssignments, float64(l.exJobs)), "count")
	res.add("exhaust.total_frac", ratio(float64(l.exTotal), float64(l.exJobs)), "fraction")
	res.add("exhaust.inconclusive_frac", ratio(float64(l.exInconclusive), float64(l.exJobs)), "fraction")

	shrink := l.stat("shrink")
	res.add("shrink.ns_per_call", perCall(shrink.total, shrink.calls), "ns")
	res.add("shrink.self_ns_per_call", perCall(shrink.self, shrink.calls), "ns")
	res.add("shrink.candidates_per_call", ratio(float64(l.shrinkTried), float64(shrink.calls)), "count")
	res.add("shrink.accept_frac", ratio(float64(l.shrinkAccepted), float64(l.shrinkTried)), "fraction")
	res.add("shrink.replay_job_frac", l.replayJobFrac, "fraction")

	open, put, save := l.stat("corpus.open"), l.stat("corpus.put"), l.stat("corpus.save_index")
	res.add("corpus.open_ns", perCall(open.total, open.calls), "ns")
	res.add("corpus.put_ns_per_call", perCall(put.total, put.calls), "ns")
	res.add("corpus.save_index_ns", perCall(save.total, save.calls), "ns")

	res.add("pipeline.busy_frac", l.busyFrac, "fraction")
	for i, st := range stageNames {
		res.add("pipeline.stage_share."+st, l.stageShare[i], "fraction")
	}

	res.add("campaign.stream_s", l.streamS, "s")
	res.add("campaign.finalize_s", l.finalizeS, "s")
	res.add("campaign.consume_ns_per_job", perCall(l.stat("consume").total, l.jobs), "ns")
	res.add("campaign.cpu_busy_frac", l.cpuBusyFrac, "fraction")

	res.add("trace.overhead_s", l.overheadS, "s")
	res.add("trace.overhead_frac", l.overheadFrac, "fraction")
	res.add("trace.stage_max_dev", l.stageMaxDev, "fraction")
	res.add("trace.stage_scale", l.stageScale, "ratio")
	res.add("trace.jobs_dev", l.jobsDev, "fraction")
	res.add("trace.fresh_mismatches", float64(l.freshMismatches), "count")
}
