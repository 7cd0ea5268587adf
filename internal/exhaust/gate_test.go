package exhaust_test

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/ni"
	"repro/internal/parser"
)

// gateSrc is the exhaust gate's program at one secret width: a
// bit<width> secret the apply block never leaks (the guarded write is the
// identity), a bool secret guard, and a 2-bit public field. It is
// IFC-rejected, a low write under a high guard, so a clean enumeration
// is exactly the proved-imprecise evidence the oracle exists for. The
// plain variant never reads hi, so the sweep keeps it at digit 0; with
// readHi the apply block increments hi, and every assignment runs.
func gateSrc(width int, readHi bool) string {
	bump := ""
	if readHi {
		bump = fmt.Sprintf("\n        hdr.d.hi = hdr.d.hi + %dw1;", width)
	}
	return fmt.Sprintf(`
header data_t {
    <bit<2>, low> lo;
    <bit<%d>, high> hi;
    <bool, high> bhi;
}
struct headers { data_t d; }
control Bench(inout headers hdr) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo = (hdr.d.lo ^ 2w0);
        }%s
    }
}
`, width, bump)
}

// gateWidths are the exhaust gate's secret widths with their secret
// space (2^width times the bool guard) and the size of the whole space
// (secret space × 4 public values). Both variants cover exactly these
// assignments; the plain one runs only the 2 bhi values per public
// state, the one that reads hi runs every assignment.
var gateWidths = []struct {
	width       int
	secretSpace uint64
	assignments uint64
}{
	{4, 32, 128},
	{8, 512, 2048},
	{12, 8192, 32768},
	{16, 131072, 524288},
}

// TestExhaustGate pins the enumeration's identity at secret widths
// 4/8/12/16. Enumeration is deterministic, so these are exact. In the
// total-proof subtest, under a budget that admits the whole space, each
// sweep is a total proved-secure proof over exactly the whole space. In
// the secret-space subtest the secret space is pinned at its budget
// edge: one assignment short, the sweep gives up as
// width-budget-exceeded; at it, one public probe sweeps every secret.
// Each sweep's machine runs (exhaust_runs_total) are exact too.
func TestExhaustGate(t *testing.T) {
	// progs[v][i] is variant v (0 plain, 1 reads hi) at gateWidths[i].
	var progs [2][]*ast.Program
	for v := range progs {
		for _, tc := range gateWidths {
			prog, err := parser.Parse(fmt.Sprintf("exhaust-%d.p4", tc.width), gateSrc(tc.width, v == 1))
			if err != nil {
				t.Fatal(err)
			}
			progs[v] = append(progs[v], prog)
		}
	}
	// runs is what variant v's sweep covering asg assignments over
	// publics public states must run.
	runs := func(v int, asg, publics uint64) uint64 {
		if v == 1 {
			return asg
		}
		return 2 * publics
	}
	check := func(t *testing.T, v, i int, budget, wantRuns uint64) ni.Result {
		t.Helper()
		reg := metrics.NewRegistry()
		e := &ni.Experiment{Prog: progs[v][i], Lat: lattice.TwoPoint(), Metrics: reg}
		res, err := exhaust.Oracle{Budget: budget}.Check(e, 1)
		if err != nil {
			t.Fatalf("variant %d, width %d, budget %d: %v", v, gateWidths[i].width, budget, err)
		}
		if got := uint64(reg.Snapshot().Counter("exhaust_runs_total")); got != wantRuns {
			t.Errorf("variant %d, width %d, budget %d: %d machine runs, want %d", v, gateWidths[i].width, budget, got, wantRuns)
		}
		return res
	}
	t.Run("total-proof", func(t *testing.T) {
		for v := range progs {
			for i, tc := range gateWidths {
				if res := check(t, v, i, 1<<22, runs(v, tc.assignments, 4)); res.Outcome != ni.ProvedSecure || !res.Total || res.Assignments != tc.assignments {
					t.Errorf("variant %d, width %d: %s total=%v after %d assignments; want a total proved-secure proof over %d",
						v, tc.width, res.Outcome, res.Total, res.Assignments, tc.assignments)
				}
			}
		}
	})
	t.Run("secret-space", func(t *testing.T) {
		for v := range progs {
			for i, tc := range gateWidths {
				if res := check(t, v, i, tc.secretSpace-1, 0); res.Outcome != ni.Inconclusive || res.Reason != exhaust.ReasonSecretBudget {
					t.Errorf("variant %d, width %d, budget %d: %s (%s); want inconclusive (%s) below a %d secret space",
						v, tc.width, tc.secretSpace-1, res.Outcome, res.Reason, exhaust.ReasonSecretBudget, tc.secretSpace)
				}
				if res := check(t, v, i, tc.secretSpace, runs(v, tc.secretSpace, 1)); res.Outcome != ni.ProvedSecure || res.Total || res.Assignments != tc.secretSpace {
					t.Errorf("variant %d, width %d, budget %d: %s total=%v after %d assignments; want one probe over the %d secrets",
						v, tc.width, tc.secretSpace, res.Outcome, res.Total, res.Assignments, tc.secretSpace)
				}
			}
		}
	})
}
