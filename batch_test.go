// Tests for the public batch-analysis and differential-fuzzing API.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/difftest"
	"repro/internal/ni"
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

// TestCheckAllDefaultBudget: a session built without WithNIBudget checks
// with the one default budget, adaptive 4/32 — the same per-job trial
// counts and violations as an explicit WithNIBudget(4, 32) — on the buggy
// and the fixed case studies.
func TestCheckAllDefaultBudget(t *testing.T) {
	var jobs []repro.BatchJob
	for _, p := range repro.CaseStudies() {
		jobs = append(jobs,
			repro.BatchJob{Name: p.FileName(repro.Buggy), Source: p.Source(repro.Buggy), Lat: p.Lattice()},
			repro.BatchJob{Name: p.FileName(repro.Fixed), Source: p.Source(repro.Fixed), Lat: p.Lattice()},
		)
	}
	check := func(opts ...repro.SessionOption) *repro.BatchSummary {
		t.Helper()
		s, err := repro.NewSession(append(opts, repro.WithSeed(5), repro.WithWorkers(2))...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sum, err := s.CheckAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	def, explicit := check(), check(repro.WithNIBudget(4, 32))
	for i := range jobs {
		d, e := def.Results[i], explicit.Results[i]
		if d.NITrialsRun != e.NITrialsRun || len(d.NIViolations) != len(e.NIViolations) {
			t.Errorf("%s: default budget ran %d trials with %d violations; WithNIBudget(4, 32) ran %d with %d",
				jobs[i].Name, d.NITrialsRun, len(d.NIViolations), e.NITrialsRun, len(e.NIViolations))
		}
	}
}

// TestCaseStudyGradesHonest: every buggy case study leaks (the paper shows
// how), so no oracle may grade one secure. Most of their leaks go through
// tables, and Session.CheckAll runs them against the empty control plane,
// where every apply misses: a clean sweep there covers that one control
// plane, not every configuration, so the exhaustive oracle must answer
// with a witness or an inconclusive grade. No buggy variant may come back
// proved-secure, nor be filed as secret-exhaustive or proved-imprecise,
// under either oracle.
func TestCaseStudyGradesHonest(t *testing.T) {
	var jobs []repro.BatchJob
	for _, p := range repro.CaseStudies() {
		jobs = append(jobs, repro.BatchJob{Name: p.FileName(repro.Buggy), Source: p.Source(repro.Buggy), Lat: p.Lattice()})
	}
	for _, oracle := range []string{"adaptive", "exhaustive"} {
		s, err := repro.NewSession(repro.WithSeed(5), repro.WithWorkers(2), repro.WithNIOracle(oracle))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.CheckAll(context.Background(), jobs)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum.Results {
			r := &sum.Results[i]
			v, _ := difftest.Classify(r)
			t.Logf("%s %s: %s %s, %s", oracle, jobs[i].Name, r.NIOutcome, r.NIReason, v)
			if r.NIOutcome == ni.ProvedSecure || v == difftest.SecretExhausted || v == difftest.ProvedImprecise {
				t.Errorf("%s oracle: buggy %s graded %s (%s)", oracle, jobs[i].Name, r.NIOutcome, v)
			}
		}
	}
}

// TestCampaignWithoutCorpus runs a small campaign through Session.Campaign
// with no WithCorpus: findings stay in memory, and the run still records
// its telemetry into the session registry.
func TestCampaignWithoutCorpus(t *testing.T) {
	const n = 50
	s, err := repro.NewSession(repro.WithSeed(3), repro.WithNIBudget(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Campaign(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("defects found:\n%s", repro.FormatCampaignReport(rep))
	}
	if rep.Analyzed != n {
		t.Errorf("analyzed %d programs, want %d", rep.Analyzed, n)
	}
	if got := s.Metrics().Counter("campaign_jobs_total"); got != n {
		t.Errorf("campaign_jobs_total = %v, want %d", got, n)
	}
	if len(rep.Findings) == 0 {
		t.Error("no findings collected; the no-path check below is vacuous")
	}
	for _, f := range rep.Findings {
		if f.Path != "" {
			t.Errorf("finding %s has path %q without a corpus", f.Key, f.Path)
		}
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
