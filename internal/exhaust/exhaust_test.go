package exhaust_test

import (
	"strings"
	"testing"

	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/ni"
	"repro/internal/parser"
)

// insecureSrc leaks the secret guard into lo: whenever bhi is set the
// observable output flips, so enumeration must find a witness at any
// public probe.
const insecureSrc = `
header data_t {
    <bit<4>, low> lo;
    <bit<4>, high> hi;
    <bool, high> bhi;
}
struct headers { data_t d; }
control Leak(inout headers hdr) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo = (hdr.d.lo ^ 4w1);
        }
    }
}
`

// secureSrc is IFC-rejected (low write under a high guard) but
// semantically non-interfering: the guarded assignment is the identity.
const secureSrc = `
header data_t {
    <bit<4>, low> lo;
    <bit<4>, high> hi;
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

// wideSrc has 72 secret bits: far beyond any reasonable budget.
const wideSrc = `
header data_t {
    <bit<8>, low> lo;
    <bit<62>, high> wide0;
    <bit<10>, high> wide1;
}
struct headers { data_t d; }
control Wide(inout headers hdr) {
    apply {
        hdr.d.lo = (hdr.d.lo ^ 8w0);
    }
}
`

func check(t *testing.T, src string, o exhaust.Oracle) ni.Result {
	t.Helper()
	prog := parser.MustParse("exhaust_test.p4", src)
	e := &ni.Experiment{Prog: prog, Lat: lattice.TwoPoint()}
	res, err := o.Check(e, 7)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestProvedInsecure(t *testing.T) {
	res := check(t, insecureSrc, exhaust.Oracle{})
	if res.Outcome != ni.ProvedInsecure {
		t.Fatalf("outcome = %v, want proved-insecure (reason %q)", res.Outcome, res.Reason)
	}
	if len(res.Violations) == 0 {
		t.Fatal("proved-insecure with no witness")
	}
	if res.Assignments == 0 {
		t.Fatal("no assignments counted")
	}
	if !strings.Contains(res.Violations[0].Where, "hdr") {
		t.Errorf("witness path %q does not name the parameter", res.Violations[0].Where)
	}
}

func TestProvedSecure(t *testing.T) {
	res := check(t, secureSrc, exhaust.Oracle{})
	if res.Outcome != ni.ProvedSecure {
		t.Fatalf("outcome = %v (reason %q), want proved-secure", res.Outcome, res.Reason)
	}
	// 2^4 public × 2^5 secret fits the default budget: a total proof.
	if want := uint64(16 * 32); res.Assignments != want {
		t.Errorf("assignments = %d, want %d", res.Assignments, want)
	}
	if !res.Total {
		t.Error("full-space sweep should claim a total proof")
	}
}

// TestProbeMode: a wide public side forces probe mode — all secrets per
// drawn probe, no total claim.
func TestProbeMode(t *testing.T) {
	const src = `
header data_t {
    <bit<40>, low> lo;
    <bit<4>, high> hi;
    <bool, high> bhi;
}
struct headers { data_t d; }
control Probe(inout headers hdr) {
    apply {
        hdr.d.lo = (hdr.d.lo ^ 40w0);
    }
}
`
	res := check(t, src, exhaust.Oracle{})
	if res.Outcome != ni.ProvedSecure {
		t.Fatalf("outcome = %v (reason %q), want proved-secure", res.Outcome, res.Reason)
	}
	if res.Total {
		t.Error("probe-mode sweep must not claim a total proof (40 public bits don't fit)")
	}
	// 2^5 secrets at each of the 16 derived probes.
	if want := uint64(32 * 16); res.Assignments != want {
		t.Errorf("assignments = %d, want %d", res.Assignments, want)
	}
}

// TestTotalProof shrinks the budget question away: a control whose whole
// input space fits the budget gets a Total proof.
func TestTotalProof(t *testing.T) {
	const src = `
header data_t {
    <bit<2>, low> lo;
    <bit<2>, high> hi;
}
struct headers { data_t d; }
control Tiny(inout headers hdr) {
    apply {
        hdr.d.lo = (hdr.d.lo ^ 2w1);
    }
}
`
	res := check(t, src, exhaust.Oracle{})
	if res.Outcome != ni.ProvedSecure || !res.Total {
		t.Fatalf("outcome = %v total=%v, want total proved-secure", res.Outcome, res.Total)
	}
	if res.Assignments != 16 {
		t.Errorf("assignments = %d, want 16 (2^2 public × 2^2 secret)", res.Assignments)
	}
}

func TestInconclusiveOverBudget(t *testing.T) {
	res := check(t, wideSrc, exhaust.Oracle{})
	if res.Outcome != ni.Inconclusive || res.Reason != exhaust.ReasonSecretBudget {
		t.Fatalf("outcome = %v reason=%q, want inconclusive %q", res.Outcome, res.Reason, exhaust.ReasonSecretBudget)
	}
	if res.Assignments != 0 {
		t.Errorf("assignments = %d for an ineligible program", res.Assignments)
	}
}

// TestFallback: an ineligible program still gets sampled witnesses from
// the fallback oracle, but the outcome stays inconclusive.
func TestFallback(t *testing.T) {
	const src = `
header data_t {
    <bit<8>, low> lo;
    <bit<62>, high> wide0;
    <bit<10>, high> wide1;
    <bool, high> bhi;
}
struct headers { data_t d; }
control WideLeak(inout headers hdr) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo = (hdr.d.lo ^ 8w1);
        }
    }
}
`
	res := check(t, src, exhaust.Oracle{Fallback: ni.Randomized{Trials: 64}})
	if res.Outcome != ni.Inconclusive || res.Reason != exhaust.ReasonSecretBudget {
		t.Fatalf("outcome = %v reason=%q, want inconclusive %q", res.Outcome, res.Reason, exhaust.ReasonSecretBudget)
	}
	if len(res.Violations) == 0 {
		t.Fatal("fallback found no witness for a leaking program")
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	prog := parser.MustParse("exhaust_test.p4", secureSrc)
	e := &ni.Experiment{Prog: prog, Lat: lattice.TwoPoint(), Metrics: reg}
	if _, err := (exhaust.Oracle{}).Check(e, 7); err != nil {
		t.Fatalf("Check: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counter("exhaust_assignments_total") == 0 {
		t.Error("exhaust_assignments_total not recorded")
	}
	if snap.Counter("exhaust_proofs_total", "verdict", "secure") != 1 {
		t.Error("exhaust_proofs_total{verdict=secure} not recorded")
	}
}

// TestDeterministic: same seed, same verdict, same assignment count.
func TestDeterministic(t *testing.T) {
	a := check(t, insecureSrc, exhaust.Oracle{})
	b := check(t, insecureSrc, exhaust.Oracle{})
	if a.Outcome != b.Outcome || a.Assignments != b.Assignments {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Outcome, a.Assignments, b.Outcome, b.Assignments)
	}
	if len(a.Violations) > 0 && a.Violations[0].String() != b.Violations[0].String() {
		t.Fatalf("witness drift: %s vs %s", a.Violations[0], b.Violations[0])
	}
}

// TestDuplicateParamsRejected: a control with two parameters named x is
// refused with an error naming x, not enumerated with one of them
// shadowing the other. The base checker rejects such a control, so only a
// direct caller of the oracle can hand it one.
func TestDuplicateParamsRejected(t *testing.T) {
	prog, err := parser.Parse("dup.p4", dupParamSrc)
	if err != nil {
		t.Fatal(err)
	}
	e := &ni.Experiment{Prog: prog, Lat: lattice.TwoPoint()}
	res, err := exhaust.Oracle{}.Check(e, 1)
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("Check: result %+v, error %v; want an error naming x", res, err)
	}
}

// dupParamSrc declares parameter x twice, at two labels.
const dupParamSrc = `
control C(inout <bit<4>, low> x, inout <bit<4>, high> x) {
    apply {
        x = x + 4w1;
    }
}
`
