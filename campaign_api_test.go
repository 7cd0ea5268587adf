// Tests for the public streaming-campaign and minimization API, driven
// through the Session.
package repro_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/gen"
)

// campaignSession opens a session over dir with the small generator the
// public-API tests share, plus any extra options.
func campaignSession(t *testing.T, dir string, seed int64, opts ...repro.SessionOption) *repro.Session {
	t.Helper()
	s, err := repro.NewSession(append([]repro.SessionOption{
		repro.WithCorpus(dir),
		repro.WithGenConfig(gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}),
		repro.WithSeed(seed),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCampaignPublicAPI runs a small persistent campaign through the
// Session, replays the corpus it left, and continues with mutation over
// it, exercising the whole public campaign surface at once.
func TestCampaignPublicAPI(t *testing.T) {
	dir := t.TempDir()
	s := campaignSession(t, dir, 21, repro.WithNIBudget(2, 0), repro.WithMinimize())
	rep, err := s.Campaign(context.Background(), 50)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("campaign found defects:\n%s", repro.FormatCampaignReport(rep))
	}
	if rep.Analyzed != 50 || rep.Window.Lo != 0 || rep.Window.Hi != 50 {
		t.Errorf("analyzed %d programs over %+v; want 50 over [0, 50)", rep.Analyzed, rep.Window)
	}
	out := repro.FormatCampaignReport(rep)
	for _, want := range []string{"fuzz campaign: indices [0, 50)", "verdict", "findings:", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// The corpus the run left behind replays clean, and a mutation-enabled
	// session over it draws on it as a seed pool.
	rr, err := s.Replay(context.Background())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.OK() || rr.Total == 0 {
		t.Fatalf("corpus replay: total=%d\n%s", rr.Total, repro.FormatReplayReport(rr))
	}
	if !strings.Contains(repro.FormatReplayReport(rr), "PASS") {
		t.Error("clean replay report does not say PASS")
	}
	mut := campaignSession(t, dir, 21, repro.WithNIBudget(2, 0), repro.WithMinimize(), repro.WithMutation(0))
	rep3, err := mut.Campaign(context.Background(), 50)
	if err != nil {
		t.Fatalf("mutation Campaign: %v", err)
	}
	if rep3.SeedPoolSize == 0 || rep3.MutantJobs == 0 {
		t.Errorf("mutation campaign: pool %d, mutants %d; want both > 0", rep3.SeedPoolSize, rep3.MutantJobs)
	}
}

// TestTriageAndRetirePublicAPI drives triage over a freshly persisted
// corpus, then retires an injected "fixed" finding, all through the
// Session.
func TestTriageAndRetirePublicAPI(t *testing.T) {
	dir := t.TempDir()
	promote := t.TempDir()
	s := campaignSession(t, dir, 42, repro.WithNIBudget(2, 8), repro.WithMinimize())
	rep, err := s.Campaign(context.Background(), 60)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("campaign persisted nothing to triage")
	}

	trep, err := s.Triage()
	if err != nil {
		t.Fatalf("Triage: %v", err)
	}
	if !trep.OK() || trep.Total != rep.NewFindings || len(trep.Clusters) == 0 {
		t.Fatalf("triage: ok=%v total=%d clusters=%d, campaign persisted %d",
			trep.OK(), trep.Total, len(trep.Clusters), rep.NewFindings)
	}
	out := repro.FormatTriageReport(trep)
	for _, want := range []string{"triage:", "size", "shape", "CLUSTER", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("triage report missing %q:\n%s", want, out)
		}
	}
	if raw, err := repro.MarshalTriageReport(trep); err != nil || !strings.Contains(string(raw), "\"clusters\"") {
		t.Errorf("MarshalTriageReport: %v", err)
	}

	// Fingerprints from the public API match the clusters' notion of shape.
	prog, err := repro.Parse("x.p4", trep.Clusters[0].Exemplar)
	if err != nil {
		t.Fatal(err)
	}
	if fp := repro.FingerprintProgram(prog); fp != trep.Clusters[0].Fingerprint {
		t.Errorf("FingerprintProgram = %s, cluster says %s", fp, trep.Clusters[0].Fingerprint)
	}

	// "Fix" one finding on disk and retire it from a fresh session: s's
	// corpus handle still caches the source its campaign persisted.
	victim := rep.Findings[0]
	fixed := `header data_t { <bit<8>, low> f; }
struct headers { data_t d; }
control C(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply { hdr.d.f = 8w7; }
}
`
	if err := os.WriteFile(victim.Path, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	retirer := campaignSession(t, dir, 42, repro.WithPromoteDir(promote))
	rrep, err := retirer.Retire(context.Background())
	if err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if !rrep.OK() || len(rrep.Retired) != 1 || rrep.Retired[0].Path != victim.Path {
		t.Fatalf("retire: ok=%v retired=%v", rrep.OK(), rrep.Retired)
	}
	if !strings.Contains(repro.FormatRetireReport(rrep), "RETIRED") {
		t.Error("retire report missing RETIRED entry")
	}
	retired := campaignSession(t, promote, 42)
	if rr, err := retired.Replay(context.Background()); err != nil || !rr.OK() {
		t.Errorf("retired corpus does not replay clean: %v", err)
	}
}

// TestMutatePublicAPI mutates a case study and checks the contract: the
// mutant parses, base-checks, and differs from its parent's print.
func TestMutatePublicAPI(t *testing.T) {
	cs, _ := repro.CaseStudyByName("D2R")
	src := cs.Source(repro.Fixed)
	mut, err := repro.Mutate(1, "d2r.p4", src, repro.MutateConfig{})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	prog, err := repro.Parse("d2r-mut.p4", mut)
	if err != nil {
		t.Fatalf("mutant does not parse: %v\n%s", err, mut)
	}
	if !repro.CheckBase(prog).OK {
		t.Fatalf("mutant fails the baseline checker:\n%s", mut)
	}
	parent, _ := repro.Parse("d2r.p4", src)
	if mut == repro.PrintProgram(parent) {
		t.Fatal("identity mutation through the facade")
	}
}

// TestCheckStreamPublicAPI streams the case studies through
// Session.CheckStream: every job comes back, with one job-done event per
// result inside op-start/op-end framing.
func TestCheckStreamPublicAPI(t *testing.T) {
	s, err := repro.NewSession(repro.WithWorkers(2), repro.WithNIBudget(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	ch := s.Events()
	collected := make(chan []repro.Event, 1)
	go func() {
		var evs []repro.Event
		for ev := range ch {
			evs = append(evs, ev)
		}
		collected <- evs
	}()
	cases := repro.CaseStudies()
	jobs := make(chan repro.BatchJob)
	go func() {
		defer close(jobs)
		for i, p := range cases {
			jobs <- repro.BatchJob{Name: p.FileName(repro.Fixed), Source: p.Source(repro.Fixed), Lat: p.Lattice(), Seq: int64(i)}
		}
	}()
	got := 0
	for r := range s.CheckStream(context.Background(), jobs) {
		got++
		if !r.ParseOK() {
			t.Errorf("%s failed to parse: %v", r.Job.Name, r.ParseErr)
		}
		if !r.IFCOK() {
			t.Errorf("%s: the fixed variant is IFC-rejected", r.Job.Name)
		}
	}
	s.Close()
	evs := <-collected
	if got != len(cases) {
		t.Errorf("streamed %d results, want %d", got, len(cases))
	}
	counts := map[repro.EventKind]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Op != "check-stream" {
			t.Errorf("event op %q, want check-stream", ev.Op)
		}
	}
	if counts[repro.EventJobDone] != len(cases) || counts[repro.EventOpStart] != 1 || counts[repro.EventOpEnd] != 1 {
		t.Errorf("event counts %v, want %d job-done inside one op-start/op-end", counts, len(cases))
	}
}

// TestMinimizeProgramPublicAPI shrinks a padded leak down to its core
// through Session.Minimize.
func TestMinimizeProgramPublicAPI(t *testing.T) {
	src := `header data_t {
    <bit<8>, low> lo;
    <bit<8>, high> hi;
    <bit<8>, low> pad0;
    <bit<8>, low> pad1;
}
struct headers { data_t d; }
control Leak(inout headers hdr, inout standard_metadata_t standard_metadata) {
    apply {
        hdr.d.pad0 = hdr.d.pad1 + 8w1;
        hdr.d.lo = hdr.d.hi;
        hdr.d.pad1 = 8w3;
    }
}
`
	// "Still rejected" must mean rejected *for a flow reason*: without the
	// base-well-typedness conjunct the minimizer happily deletes the header
	// declaration and keeps a program that is "rejected" for being
	// unresolvable.
	rejected := func(cand string) bool {
		prog, err := repro.Parse("cand.p4", cand)
		if err != nil {
			return false
		}
		return repro.CheckBase(prog).OK && !repro.Check(prog, repro.TwoPoint()).OK
	}
	s, err := repro.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	min, err := s.Minimize("leak.p4", src, rejected)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if len(min) >= len(src) {
		t.Errorf("no reduction: %d bytes from %d", len(min), len(src))
	}
	if !rejected(min) {
		t.Errorf("minimized program no longer rejected:\n%s", min)
	}
	if !strings.Contains(min, "hdr.d.lo = hdr.d.hi") {
		t.Errorf("core leak lost in minimization:\n%s", min)
	}
}
