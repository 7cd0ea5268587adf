package exhaust_test

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// gateSrc is the exhaust gate's program at one secret width: a
// bit<width> secret the apply block never leaks (the guarded write is the
// identity), a bool secret guard, and a 2-bit public field. It is
// IFC-rejected, a low write under a high guard, so a clean enumeration
// is exactly the proved-imprecise evidence the oracle exists for.
func gateSrc(width int) string {
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
        }
    }
}
`, width)
}

// gateWidths are the exhaust gate's secret widths with their secret
// space (2^width times the bool guard) and the size of the whole space
// (secret space × 4 public values).
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
func TestExhaustGate(t *testing.T) {
	progs := make([]*ast.Program, len(gateWidths))
	for i, tc := range gateWidths {
		prog, err := parser.Parse(fmt.Sprintf("exhaust-%d.p4", tc.width), gateSrc(tc.width))
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	check := func(t *testing.T, i int, budget uint64) ni.Result {
		t.Helper()
		e := &ni.Experiment{Prog: progs[i], Lat: lattice.TwoPoint()}
		res, err := exhaust.Oracle{Budget: budget}.Check(e, 1)
		if err != nil {
			t.Fatalf("width %d, budget %d: %v", gateWidths[i].width, budget, err)
		}
		return res
	}
	t.Run("total-proof", func(t *testing.T) {
		for i, tc := range gateWidths {
			if res := check(t, i, 1<<22); res.Outcome != ni.ProvedSecure || !res.Total || res.Assignments != tc.assignments {
				t.Errorf("width %d: %s total=%v after %d assignments; want a total proved-secure proof over %d",
					tc.width, res.Outcome, res.Total, res.Assignments, tc.assignments)
			}
		}
	})
	t.Run("secret-space", func(t *testing.T) {
		for i, tc := range gateWidths {
			if res := check(t, i, tc.secretSpace-1); res.Outcome != ni.Inconclusive || res.Reason != exhaust.ReasonSecretBudget {
				t.Errorf("width %d, budget %d: %s (%s); want inconclusive (%s) below a %d secret space",
					tc.width, tc.secretSpace-1, res.Outcome, res.Reason, exhaust.ReasonSecretBudget, tc.secretSpace)
			}
			if res := check(t, i, tc.secretSpace); res.Outcome != ni.ProvedSecure || res.Total || res.Assignments != tc.secretSpace {
				t.Errorf("width %d, budget %d: %s total=%v after %d assignments; want one probe over the %d secrets",
					tc.width, tc.secretSpace, res.Outcome, res.Total, res.Assignments, tc.secretSpace)
			}
		}
	})
}
