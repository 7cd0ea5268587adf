package exhaust

import (
	"errors"
	"testing"

	"repro/internal/ni"
)

// TestSweepResultOutcomes locks the sweep-result assembly, in particular
// that an error-interrupted sweep can never carry a proved-secure
// outcome: a partial enumeration proves nothing, so it must degrade to
// Inconclusive with the run-error reason (machine-run errors are not
// reproducible from well-typed sources, which is why this is tested at
// the assembly seam rather than end-to-end), and that a clean sweep that
// met an empty table is inconclusive. Results count covered assignments
// (positions in the full order, pinned leaves included), never the
// machine runs the sweep made.
func TestSweepResultOutcomes(t *testing.T) {
	s := &sweeper{covered: 37, runs: 5}
	vio := &ni.Violation{Trial: 3, Where: "hdr", A: "0", B: "1"}

	if r := s.result(nil, true, nil); r.Outcome != ni.ProvedSecure || !r.Total || r.Assignments != 37 {
		t.Errorf("clean total sweep: %+v, want total proved-secure with 37 assignments", r)
	}
	if r := s.result(nil, false, nil); r.Outcome != ni.ProvedSecure || r.Total {
		t.Errorf("clean probe sweep: %+v, want non-total proved-secure", r)
	}
	if r := s.result(vio, false, nil); r.Outcome != ni.ProvedInsecure || len(r.Violations) != 1 {
		t.Errorf("witnessed sweep: %+v, want proved-insecure with the witness", r)
	}
	r := s.result(nil, true, errors.New("boom"))
	if r.Outcome != ni.ProvedSecure && r.Outcome != ni.Inconclusive {
		t.Fatalf("error-interrupted sweep: outcome %v", r.Outcome)
	}
	if r.Outcome == ni.ProvedSecure {
		t.Fatal("error-interrupted sweep claims proved-secure — a partial sweep must be inconclusive")
	}
	if r.Reason != ReasonRunError || r.Total {
		t.Errorf("error-interrupted sweep: reason %q total=%v, want %q and non-total", r.Reason, r.Total, ReasonRunError)
	}
	if r.Assignments != 37 || r.Trials != 37 {
		t.Errorf("error-interrupted sweep dropped the covered counts: %+v", r)
	}

	// A sweep whose runs applied a table with no entries covered only the
	// empty control plane: clean, it proves nothing; a witness still
	// proves interference.
	s.emptyTable = true
	for _, total := range []bool{true, false} {
		if r := s.result(nil, total, nil); r.Outcome != ni.Inconclusive || r.Reason != ReasonControlPlane || r.Total {
			t.Errorf("clean sweep over an empty table (total=%v): %+v, want non-total inconclusive(%s)", total, r, ReasonControlPlane)
		}
	}
	if r := s.result(vio, true, nil); r.Outcome != ni.ProvedInsecure || len(r.Violations) != 1 {
		t.Errorf("witnessed sweep over an empty table: %+v, want proved-insecure with the witness", r)
	}
	if r := s.result(nil, true, errors.New("boom")); r.Reason != ReasonRunError {
		t.Errorf("error-interrupted sweep over an empty table: reason %q, want %q", r.Reason, ReasonRunError)
	}
}
