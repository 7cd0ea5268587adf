// Tests for the Session + Corpus public API: configuration validation,
// the event stream, and the corpus handle.
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

func smallSessionGen() repro.GenConfig {
	return gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}
}

// TestSessionValidation: misconfiguration fails at NewSession, not
// mid-campaign.
func TestSessionValidation(t *testing.T) {
	cases := [][]repro.SessionOption{
		{repro.WithLattice("chain:x")},
		{repro.WithMutation(1.5)},
		{repro.WithNIOracle("bogus")},
	}
	for i, opts := range cases {
		if _, err := repro.NewSession(opts...); err == nil {
			t.Errorf("case %d: invalid session built without error", i)
		}
	}
	s, err := repro.NewSession(
		repro.WithLattice("product:two-point,two-point"),
		repro.WithCorpus(t.TempDir()),
	)
	if err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
	s.Close()

	// Corpus-reading operations on a corpus-less session report the
	// misconfiguration instead of silently scanning the working directory.
	bare, err := repro.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Replay(context.Background()); err == nil {
		t.Error("Replay without WithCorpus did not error")
	}
	if _, err := bare.Triage(); err == nil {
		t.Error("Triage without WithCorpus did not error")
	}
	if _, err := bare.Retire(context.Background()); err == nil {
		t.Error("Retire without WithCorpus did not error")
	}
	if _, err := bare.Corpus(); err == nil {
		t.Error("Corpus without WithCorpus did not error")
	}
}

// TestSessionLatticeKeepsGenDefaults: WithLattice alone overrides only
// the lattice — the generator keeps its default shape (actions included),
// exactly like `p4fuzz run -lattice chain:4`.
func TestSessionLatticeKeepsGenDefaults(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithCorpus(t.TempDir()),
		repro.WithLattice("chain:4"),
		repro.WithNIBudget(1, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Campaign(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	def := gen.DefaultConfig()
	def.Lattice = "chain:4"
	if rep.Gen != def {
		t.Fatalf("WithLattice-only session ran gen config %+v, want default shape with chain:4 (%+v)", rep.Gen, def)
	}
	if !rep.Gen.WithActions {
		t.Fatal("WithLattice zeroed WithActions — action coverage silently lost")
	}
}

// TestSessionEvents: a campaign streams job-done events (one per
// analyzed program), finding events (one per new finding), and progress
// ticks ending at done == total; Close closes the channel.
func TestSessionEvents(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithCorpus(t.TempDir()),
		repro.WithGenConfig(smallSessionGen()),
		repro.WithSeed(5),
		repro.WithNIBudget(1, 0),
	)
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
	rep, err := s.Campaign(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	evs := <-collected
	if s.Dropped() != 0 {
		t.Fatalf("%d events dropped with a live consumer and a 1024 buffer", s.Dropped())
	}
	counts := map[repro.EventKind]int{}
	var lastProgress repro.Event
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Kind == repro.EventProgress {
			lastProgress = ev
		}
		if ev.Op != "campaign" {
			t.Errorf("event op %q, want campaign", ev.Op)
		}
		if ev.Time.IsZero() {
			t.Error("event missing timestamp")
		}
	}
	if counts[repro.EventJobDone] != rep.Analyzed {
		t.Errorf("%d job-done events, want %d (one per analyzed program)", counts[repro.EventJobDone], rep.Analyzed)
	}
	if counts[repro.EventFinding] != rep.NewFindings {
		t.Errorf("%d finding events, want %d", counts[repro.EventFinding], rep.NewFindings)
	}
	if counts[repro.EventProgress] == 0 || lastProgress.Done != rep.Analyzed || lastProgress.Total != rep.Analyzed {
		t.Errorf("progress ticks broken: %d ticks, last %d/%d, want final %d/%d",
			counts[repro.EventProgress], lastProgress.Done, lastProgress.Total, rep.Analyzed, rep.Analyzed)
	}
	// The channel is closed: a fresh receive completes immediately.
	if _, ok := <-ch; ok {
		t.Error("event channel still open after Close")
	}
}

// TestSessionCloseDuringOperation: closing the session from the event
// listener while a campaign is still running discards the remaining
// events instead of panicking on the closed channel; the campaign itself
// completes normally.
func TestSessionCloseDuringOperation(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithCorpus(t.TempDir()),
		repro.WithGenConfig(smallSessionGen()),
		repro.WithNIBudget(1, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.Events()
	drained := make(chan int, 1)
	go func() {
		n := 0
		for range ch {
			n++
			if n == 3 {
				s.Close() // mid-operation: must not panic the engine
			}
		}
		drained <- n
	}()
	rep, err := s.Campaign(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed != 60 {
		t.Errorf("campaign analyzed %d after mid-run Close, want 60", rep.Analyzed)
	}
	if n := <-drained; n < 3 {
		t.Errorf("listener drained %d events before close", n)
	}
}

// TestSessionReplayDriftEvents: replay emits one job-done per finding and
// a drift event per mismatch; the session's corpus handle sees the same
// totals.
func TestSessionReplayDriftEvents(t *testing.T) {
	dir := t.TempDir()
	seeder, err := repro.NewSession(
		repro.WithCorpus(dir),
		repro.WithGenConfig(smallSessionGen()),
		repro.WithSeed(23),
		repro.WithNIBudget(1, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := seeder.Campaign(context.Background(), 80)
	seeder.Close()
	if err != nil {
		t.Fatal(err)
	}
	if seed.NewFindings == 0 {
		t.Skip("campaign found nothing to replay")
	}
	// Tamper one finding's recorded class so replay must drift.
	ents, err := os.ReadDir(filepath.Join(dir, "findings"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".json") || !strings.HasPrefix(e.Name(), "rejected-clean-") {
			continue
		}
		path := filepath.Join(dir, "findings", e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m["class"] = "sound"
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		tampered = true
		break
	}
	if !tampered {
		t.Skip("no rejected-clean finding to tamper with")
	}

	s, err := repro.NewSession(repro.WithCorpus(dir), repro.WithNIBudget(1, 0))
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
	rep, err := s.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	evs := <-collected
	if rep.OK() || len(rep.Drifts) == 0 {
		t.Fatalf("tampered corpus replayed clean: %+v", rep)
	}
	counts := map[repro.EventKind]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Op != "replay" {
			t.Errorf("event op %q, want replay", ev.Op)
		}
	}
	if counts[repro.EventDrift] != len(rep.Drifts) {
		t.Errorf("%d drift events, want %d", counts[repro.EventDrift], len(rep.Drifts))
	}
	if counts[repro.EventJobDone] != rep.Total {
		t.Errorf("%d job-done events, want %d replayed findings", counts[repro.EventJobDone], rep.Total)
	}
}

// TestSessionTriageClusterEvents: triage emits one cluster event per
// ranked cluster over the checked-in regression corpus.
func TestSessionTriageClusterEvents(t *testing.T) {
	s, err := repro.NewSession(repro.WithCorpus("testdata/regression-corpus"))
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
	rep, err := s.Triage()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	evs := <-collected
	if !rep.OK() || len(rep.Clusters) == 0 {
		t.Fatalf("regression corpus triage: %+v", rep.Errors)
	}
	clusterEvents := 0
	for _, ev := range evs {
		if ev.Kind == repro.EventCluster {
			clusterEvents++
			if ev.Class == "" || ev.Detail == "" {
				t.Errorf("cluster event missing class/fingerprint: %+v", ev)
			}
		}
	}
	if clusterEvents != len(rep.Clusters) {
		t.Errorf("%d cluster events, want %d", clusterEvents, len(rep.Clusters))
	}
}

// TestSessionCorpusHandle: the session's corpus view agrees with the
// public OpenCorpus over the regression corpus, and filters work through
// the re-exported types.
func TestSessionCorpusHandle(t *testing.T) {
	s, err := repro.NewSession(repro.WithCorpus("testdata/regression-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := repro.OpenCorpus("testdata/regression-corpus")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != direct.Len() || c.Len() < 15 {
		t.Fatalf("session corpus %d entries, direct %d, want >= 15", c.Len(), direct.Len())
	}
	st := c.Stats()
	if st.Total != c.Len() || st.Errors != 0 {
		t.Fatalf("regression corpus stats: %+v", st)
	}
	sum := 0
	for class, n := range st.ByClass {
		filtered := 0
		for range c.Select(repro.CorpusFilter{Class: class}) {
			filtered++
		}
		if filtered != n {
			t.Errorf("class %s: filter found %d, stats say %d", class, filtered, n)
		}
		sum += n
	}
	if sum != st.Total {
		t.Errorf("class counts sum to %d, total %d", sum, st.Total)
	}
}

// TestSessionProductLatticeCampaign: product lattices run end-to-end
// through the Session — the ROADMAP item that product element names
// didn't lex as labels.
func TestSessionProductLatticeCampaign(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithGenConfig(gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true, Lattice: "product:two-point,two-point"}),
		repro.WithCorpus(t.TempDir()),
		repro.WithSeed(3),
		repro.WithNIBudget(1, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Campaign(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed != 30 {
		t.Fatalf("analyzed %d, want 30", rep.Analyzed)
	}
	if rep.Counts[0] == 0 { // difftest.Sound == 0: some programs must be accepted and NI-clean
		t.Errorf("no sound programs under the product lattice: %+v", rep.Counts)
	}
}

// TestSessionOpFraming: every operation's stream opens with op-start and
// closes with op-end, and the op-end detail summarizes the outcome — the
// contract that lets a fleet coordinator distinguish a complete worker
// stream from one cut short by a crash.
func TestSessionOpFraming(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithCorpus(t.TempDir()),
		repro.WithGenConfig(smallSessionGen()),
		repro.WithSeed(5),
		repro.WithNIBudget(1, 0),
	)
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
	if _, err := s.Campaign(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	evs := <-collected

	var frames []repro.Event
	for _, ev := range evs {
		if ev.Kind == repro.EventOpStart || ev.Kind == repro.EventOpEnd {
			frames = append(frames, ev)
		}
	}
	wantOps := []string{"campaign", "campaign", "replay", "replay"}
	if len(frames) != len(wantOps) {
		t.Fatalf("got %d framing events, want %d: %+v", len(frames), len(wantOps), frames)
	}
	for i, f := range frames {
		if f.Op != wantOps[i] {
			t.Errorf("frame %d op %q, want %q", i, f.Op, wantOps[i])
		}
		wantKind := repro.EventOpStart
		if i%2 == 1 {
			wantKind = repro.EventOpEnd
		}
		if f.Kind != wantKind {
			t.Errorf("frame %d kind %v, want %v", i, f.Kind, wantKind)
		}
		if f.Kind == repro.EventOpEnd && f.Detail == "" {
			t.Errorf("frame %d (op-end %s) has no outcome detail", i, f.Op)
		}
	}
	// Framing must wrap the payload: the first event of the whole stream
	// is op-start, the last op-end.
	if evs[0].Kind != repro.EventOpStart || evs[len(evs)-1].Kind != repro.EventOpEnd {
		t.Errorf("stream not framed: first %v, last %v", evs[0].Kind, evs[len(evs)-1].Kind)
	}
}

// TestSessionDropWarning: a consumer too slow for the buffer loses
// events, and the operation's final framing says so — a guaranteed
// KindWarning with the drop count before op-end, delivered even though
// the buffer is full.
func TestSessionDropWarning(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithGenConfig(smallSessionGen()),
		repro.WithSeed(5),
		repro.WithNIBudget(1, 0),
		repro.WithEventBuffer(2), // force drops: a campaign emits far more
	)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.Events()
	if _, err := s.Campaign(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var evs []repro.Event
	for ev := range ch {
		evs = append(evs, ev)
	}
	if s.Dropped() == 0 {
		t.Fatal("no events dropped with a 2-slot buffer and no consumer; the test premise is broken")
	}
	// The stream must end op-end, preceded by the drop warning.
	if len(evs) < 2 {
		t.Fatalf("only %d events survived", len(evs))
	}
	last, warn := evs[len(evs)-1], evs[len(evs)-2]
	if last.Kind != repro.EventOpEnd {
		t.Errorf("stream does not end with op-end: %+v", last)
	}
	if warn.Kind != repro.EventWarning || warn.Done == 0 || !strings.Contains(warn.Detail, "dropped") {
		t.Errorf("no drop-count warning before op-end: %+v", warn)
	}
}

// TestSessionCheckMethodsMatchWrappers: Session.CheckAll is a thin wrapper
// over pipeline.Run — the same configuration through either gives the same
// results — and CheckStream delivers every result.
func TestSessionCheckMethodsMatchWrappers(t *testing.T) {
	s, err := repro.NewSession(
		repro.WithGenConfig(smallSessionGen()),
		repro.WithSeed(11),
		repro.WithNIBudget(2, 4),
		repro.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// CheckAll: same per-job outcomes as the pipeline it wraps.
	var jobs []repro.BatchJob
	for i, cs := range repro.CaseStudies() {
		jobs = append(jobs, repro.BatchJob{Name: cs.FileName(repro.Buggy), Source: cs.Source(repro.Buggy), Lat: cs.Lattice(), Seq: int64(i)})
	}
	sSum, err := s.CheckAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	pSum, err := pipeline.Run(context.Background(), jobs, pipeline.Options{
		Workers: 2,
		NI:      pipeline.NIAll,
		Budget:  pipeline.Budget{Trials: 2, TrialsMax: 4},
		NISeed:  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sSum.Results) != len(pSum.Results) {
		t.Fatalf("Session.CheckAll %d results, pipeline.Run %d", len(sSum.Results), len(pSum.Results))
	}
	for i := range sSum.Results {
		if sSum.Results[i].IFCOK() != pSum.Results[i].IFCOK() || sSum.Results[i].NITrialsRun != pSum.Results[i].NITrialsRun {
			t.Errorf("job %d: session IFC %v / %d trials, pipeline %v / %d trials", i,
				sSum.Results[i].IFCOK(), sSum.Results[i].NITrialsRun, pSum.Results[i].IFCOK(), pSum.Results[i].NITrialsRun)
		}
	}

	// CheckStream: all jobs come back.
	in := make(chan repro.BatchJob)
	go func() {
		defer close(in)
		for _, j := range jobs {
			in <- j
		}
	}()
	n := 0
	for range s.CheckStream(context.Background(), in) {
		n++
	}
	if n != len(jobs) {
		t.Errorf("CheckStream delivered %d results, want %d", n, len(jobs))
	}
}
