// Tests for the public batch-analysis and differential-fuzzing API.
package repro_test

import (
	"context"
	"testing"

	"repro"
)

// TestCheckAll drives Session.CheckAll over the embedded case studies and
// checks the aggregate counts match the paper's matrix.
func TestCheckAll(t *testing.T) {
	s, err := repro.NewSession(repro.WithWorkers(4), repro.WithNIBudget(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var jobs []repro.BatchJob
	for _, p := range repro.CaseStudies() {
		jobs = append(jobs,
			repro.BatchJob{Name: p.FileName(repro.Buggy), Source: p.Source(repro.Buggy), Lat: p.Lattice()},
			repro.BatchJob{Name: p.FileName(repro.Fixed), Source: p.Source(repro.Fixed), Lat: p.Lattice()},
		)
	}
	sum, err := s.CheckAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Parsed != len(jobs) {
		t.Errorf("parsed %d/%d jobs", sum.Parsed, len(jobs))
	}
	if sum.BaseAccepted != len(jobs) {
		t.Errorf("baseline accepted %d/%d jobs (buggy variants are base-well-typed)", sum.BaseAccepted, len(jobs))
	}
	if want := len(jobs) / 2; sum.IFCAccepted != want {
		t.Errorf("IFC accepted %d jobs, want exactly the %d fixed variants", sum.IFCAccepted, want)
	}
}

// TestDiffFuzzPublicAPI runs a small one-shot campaign through
// Session.DiffFuzz.
func TestDiffFuzzPublicAPI(t *testing.T) {
	s, err := repro.NewSession(repro.WithSeed(3), repro.WithNIBudget(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.DiffFuzz(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("defects found:\n%s", repro.FormatFuzzReport(rep))
	}
	if rep.Analyzed != 50 {
		t.Errorf("analyzed %d programs, want 50", rep.Analyzed)
	}
}

// TestPrintProgramRoundtrips checks the public printer parses back.
func TestPrintProgramRoundtrips(t *testing.T) {
	p, _ := repro.CaseStudyByName("Cache")
	prog := repro.MustParse("cache.p4", p.Source(repro.Fixed))
	printed := repro.PrintProgram(prog)
	if _, err := repro.Parse("cache.p4", printed); err != nil {
		t.Fatalf("printed program does not reparse: %v\n%s", err, printed)
	}
}
