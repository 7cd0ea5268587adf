package difftest

import (
	"errors"
	"testing"

	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/ni"
	"repro/internal/pipeline"
)

// TestClassify drives every verdict branch with synthetic pipeline
// results, including the soundness-violation branch a healthy checker
// never produces organically.
func TestClassify(t *testing.T) {
	okBase := &basecheck.Result{OK: true}
	badBase := &basecheck.Result{OK: false}
	okIFC := &core.Result{OK: true}
	badIFC := &core.Result{OK: false}
	witness := []ni.Violation{{Trial: 0, Where: "hdr", A: "1", B: "2"}}

	for _, tc := range []struct {
		name string
		r    pipeline.JobResult
		want Verdict
	}{
		{"parse failure", pipeline.JobResult{ParseErr: errors.New("x")}, GeneratorBug},
		{"resolve failure", pipeline.JobResult{ResolveErr: errors.New("x")}, GeneratorBug},
		{"base rejection", pipeline.JobResult{Base: badBase}, GeneratorBug},
		{"runtime error", pipeline.JobResult{Base: okBase, IFC: okIFC, NIErr: errors.New("x")}, RuntimeError},
		{"accepted clean", pipeline.JobResult{Base: okBase, IFC: okIFC}, Sound},
		{"accepted interfering", pipeline.JobResult{Base: okBase, IFC: okIFC, NIViolations: witness}, SoundnessViolation},
		{"witness outranks trial error", pipeline.JobResult{Base: okBase, IFC: okIFC, NIViolations: witness, NIErr: errors.New("x")}, SoundnessViolation},
		{"rejected witnessed", pipeline.JobResult{Base: okBase, IFC: badIFC, NIViolations: witness}, RejectedWitnessed},
		{"rejected clean", pipeline.JobResult{Base: okBase, IFC: badIFC}, RejectedClean},
		{"rejected, proved secure over the full space", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NITotal: true, NIAssignments: 512}, ProvedImprecise},
		{"rejected, clean probe-mode sweep is not a proof", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NIAssignments: 512}, SecretExhausted},
		{"rejected, enumeration inconclusive", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.Inconclusive, NIReason: "width-budget-exceeded"}, UnderTested},
		{"witness outranks proof outcome", pipeline.JobResult{Base: okBase, IFC: badIFC, NIViolations: witness, NIOutcome: ni.ProvedInsecure}, RejectedWitnessed},
		{"accepted ignores proof outcome", pipeline.JobResult{Base: okBase, IFC: okIFC, NIOutcome: ni.ProvedSecure, NITotal: true}, Sound},
	} {
		got, _ := Classify(&tc.r)
		if got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}
