package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/ni"
	"repro/internal/pipeline"
)

// imprecisionSrc is IFC-rejected (low write under a high guard) but
// semantically non-interfering: the guarded write is the identity. The
// canonical checker false positive the exhaustive oracle exists to prove.
const imprecisionSrc = `
header data_t {
    <bit<4>, low> lo;
    <bool, high> bhi;
}
struct headers { data_t d; }
control Noop(inout headers hdr) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo = (hdr.d.lo ^ 4w0);
        }
    }
}
`

func TestValidOracle(t *testing.T) {
	for _, name := range []string{"", pipeline.OracleAdaptive, pipeline.OracleRandomized, pipeline.OracleExhaustive} {
		if err := (pipeline.Budget{Oracle: name}).Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"exhaust", "random", "Adaptive", "proof"} {
		if (pipeline.Budget{Oracle: name}).Validate() == nil {
			t.Errorf("Validate(%q) = nil, want an error", name)
		}
	}
}

// TestBudgetResolved: the one default NI budget — 4 trials, a ceiling of
// 8 × trials, and a negative or undersized ceiling made flat.
func TestBudgetResolved(t *testing.T) {
	for _, tc := range []struct{ trials, max, wantTrials, wantMax int }{
		{0, 0, 4, 32},
		{2, 0, 2, 16},
		{4, -1, 4, 4},
		{8, 3, 8, 8},
	} {
		b := pipeline.Budget{Trials: tc.trials, TrialsMax: tc.max, Oracle: pipeline.OracleExhaustive, ExhaustBudget: 9, ExhaustProbes: 2}
		got := b.Resolved()
		want := pipeline.Budget{Trials: tc.wantTrials, TrialsMax: tc.wantMax, Oracle: pipeline.OracleExhaustive, ExhaustBudget: 9, ExhaustProbes: 2}
		if got != want {
			t.Errorf("Budget{%d, %d}.Resolved() = %+v, want %+v", tc.trials, tc.max, got, want)
		}
		if again := got.Resolved(); again != got {
			t.Errorf("Resolved is not idempotent: %+v then %+v", got, again)
		}
	}
}

func runOne(t *testing.T, opts pipeline.Options) *pipeline.JobResult {
	t.Helper()
	jobs := []pipeline.Job{{Name: "oracle.p4", Source: imprecisionSrc, Lat: lattice.TwoPoint()}}
	sum, err := pipeline.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return &sum.Results[0]
}

// TestOracleSelection locks the dispatch: the default reproduces the
// historical adaptive-on-rejection behavior, "randomized" flattens it,
// and "exhaustive" upgrades the job to a proof with provenance fields.
func TestOracleSelection(t *testing.T) {
	base := pipeline.Options{Workers: 1, NI: true, Budget: pipeline.Budget{Trials: 4, TrialsMax: 32}, NISeed: 11}

	r := runOne(t, base)
	if r.NIOracle != "adaptive" {
		t.Errorf("default on a rejected program: oracle %q, want adaptive", r.NIOracle)
	}
	if r.NIOutcome != ni.Sampled {
		t.Errorf("sampling oracle produced outcome %v, want sampled", r.NIOutcome)
	}

	flat := base
	flat.Oracle = pipeline.OracleRandomized
	if r := runOne(t, flat); r.NIOracle != "randomized" {
		t.Errorf("randomized option ran oracle %q", r.NIOracle)
	}

	ex := base
	ex.Oracle = pipeline.OracleExhaustive
	r = runOne(t, ex)
	if r.NIOracle != "exhaustive" {
		t.Errorf("exhaustive option ran oracle %q", r.NIOracle)
	}
	if r.NIOutcome != ni.ProvedSecure {
		t.Errorf("outcome %v (reason %q), want proved-secure", r.NIOutcome, r.NIReason)
	}
	// imprecisionSrc's whole input space (2^4 public × 2 secret) fits the
	// default budget, so the sweep must be total — the grade difftest
	// requires before calling the rejection proved-imprecise.
	if !r.NITotal {
		t.Error("full-space enumeration did not set NITotal")
	}
	if r.NIAssignments == 0 {
		t.Error("proof recorded zero enumerated assignments")
	}
	if len(r.NIViolations) != 0 {
		t.Errorf("proved-secure with %d violations", len(r.NIViolations))
	}
}

// TestExhaustiveMetricsIdentity locks the CI gate's invariant on the
// pre-registered series: every job under the exhaustive oracle lands in
// exactly one verdict bucket, so the buckets sum to the job counter.
func TestExhaustiveMetricsIdentity(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := pipeline.Options{
		Workers: 1,
		NI:      true,
		Budget:  pipeline.Budget{Trials: 2, TrialsMax: 4, Oracle: pipeline.OracleExhaustive},
		NISeed:  3,
		Metrics: reg,
	}
	jobs := []pipeline.Job{
		{Name: "a.p4", Source: imprecisionSrc, Lat: lattice.TwoPoint()},
		{Name: "b.p4", Source: imprecisionSrc, Lat: lattice.TwoPoint()},
	}
	if _, err := pipeline.Run(context.Background(), jobs, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := reg.Snapshot()
	total := snap.Counter("exhaust_jobs_total")
	if total != 2 {
		t.Fatalf("exhaust_jobs_total = %v, want 2", total)
	}
	sum := 0.0
	for _, outcome := range []string{"proved-secure", "proved-insecure", "inconclusive"} {
		sum += snap.Counter("exhaust_job_verdicts_total", "outcome", outcome)
	}
	if sum != total {
		t.Fatalf("verdict buckets sum to %v, jobs total %v — the split is inconsistent", sum, total)
	}
	if snap.Counter("exhaust_assignments_total") == 0 {
		t.Error("exhaust_assignments_total not recorded")
	}
}
