package exhaust_test

import (
	"testing"

	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// narrowSrc has 16 public bits and 6 secret bits, all narrow enough for
// eval's pre-boxed bit values, so every value the program computes is
// shared and a sweep allocates only its per-Check setup.
const narrowSrc = `
header data_t {
    <bit<8>, low> lo;
    <bit<8>, low> lo2;
    <bit<6>, high> hi;
}
struct headers { data_t d; }
control Arith(inout headers hdr) {
    apply {
        hdr.d.lo = hdr.d.lo + hdr.d.lo2;
        hdr.d.lo2 = hdr.d.lo2 ^ 8w255;
        hdr.d.hi = hdr.d.hi + 6w1;
    }
}
`

// TestAllocsIndependentOfAssignments: a Check at budget 2^12 runs 16
// times the assignments of one at 2^6 (16 public probes instead of 1,
// each over all 64 secrets) and must allocate exactly as much, so no
// per-assignment or per-probe allocation can come back unnoticed.
func TestAllocsIndependentOfAssignments(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := &ni.Experiment{Prog: parser.MustParse("alloc.p4", narrowSrc), Lat: lattice.TwoPoint()}
	allocs := func(budget, wantAsg uint64) float64 {
		o := exhaust.Oracle{Budget: budget}
		var res ni.Result
		n := testing.AllocsPerRun(20, func() {
			var err error
			if res, err = o.Check(e, 7); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
		if res.Outcome != ni.ProvedSecure || res.Assignments != wantAsg {
			t.Fatalf("budget %d: outcome=%v assignments=%d, want proved-secure over %d",
				budget, res.Outcome, res.Assignments, wantAsg)
		}
		return n
	}
	small := allocs(1<<6, 64)
	large := allocs(1<<12, 1024)
	if small != large {
		t.Errorf("allocs per Check: %v at 64 assignments, %v at 1024 — the sweep allocates per assignment or per probe", small, large)
	}
	t.Logf("allocs per Check: %v", small)
}
