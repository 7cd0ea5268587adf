package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

func smallGen() gen.Config {
	return gen.Config{MaxDepth: 2, MaxStmts: 3, NumFields: 2, WithActions: true}
}

// readKeys collects the dedup keys of every finding persisted under dir.
func readKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	keys := map[string]bool{}
	entries, err := os.ReadDir(filepath.Join(dir, "findings"))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") || e.Name() == "index.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, "findings", e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		var m struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode %s: %v", e.Name(), err)
		}
		keys[m.Key] = true
	}
	return keys
}

// TestLeaseProtocol: O_EXCL acquisition is exclusive, heartbeats refresh
// the mtime, and done markers outrank leases.
func TestLeaseProtocol(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(leasesDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(doneDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	w := Window{Lo: 0, Hi: 10}
	ok, err := acquireLease(dir, "w1", w)
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	ok, err = acquireLease(dir, "w2", w)
	if err != nil || ok {
		t.Fatalf("second acquire must lose: ok=%v err=%v", ok, err)
	}
	var l Lease
	if err := readJSON(leasePath(dir, 0, 10), &l); err != nil || l.Worker != "w1" {
		t.Fatalf("lease content: %+v err=%v", l, err)
	}
	// Heartbeat pushes the mtime forward.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(leasePath(dir, 0, 10), old, old); err != nil {
		t.Fatal(err)
	}
	heartbeat(dir, w)
	info, err := os.Stat(leasePath(dir, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(info.ModTime()) > time.Minute {
		t.Errorf("heartbeat did not refresh the mtime: %v", info.ModTime())
	}
	if windowDone(dir, w) {
		t.Error("window done before any marker")
	}
	if err := writeJSONAtomic(donePath(dir, 0, 10), DoneMarker{Worker: "w1", Lo: 0, Hi: 10}); err != nil {
		t.Fatal(err)
	}
	if !windowDone(dir, w) {
		t.Error("window not done after marker")
	}
}

// TestManifestWindows: the span is carved into [Lo, Lo+W), ... with the
// last window clipped.
// TestManifestJSONStable: a manifest with every field set, recorded before
// the campaign parameters moved into campaign.Spec, decodes into the Spec
// and re-encodes to the same bytes.
func TestManifestJSONStable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(golden, &m); err != nil {
		t.Fatal(err)
	}
	want := campaign.Spec{
		Seed: 42,
		Gen:  gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 1, WithActions: true, Lattice: "chain:4"},
		Budget: pipeline.Budget{Trials: 6, TrialsMax: 48,
			Oracle: pipeline.OracleExhaustive, ExhaustBudget: 1 << 12, ExhaustProbes: 3},
		Mutate: true, MutateFrac: 0.25, Minimize: true, MaxPerClass: 7,
	}
	if m.Spec != want {
		t.Errorf("decoded spec %+v, want %+v", m.Spec, want)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := writeJSONAtomic(path, &m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(golden) {
		t.Errorf("re-encoded manifest differs from the golden:\n%s\nwant:\n%s", got, golden)
	}
}

// TestSpecFieldsNotShadowed: every campaign.Spec field, Budget's
// included, resolves through the fleet Config and Manifest to their
// embedded Spec. A field of the same name declared next to the embedding
// would shadow the Spec's value without a compile error.
func TestSpecFieldsNotShadowed(t *testing.T) {
	for _, outer := range []any{Config{}, Manifest{}} {
		ot := reflect.TypeOf(outer)
		embed, _ := ot.FieldByName("Spec")
		for _, f := range reflect.VisibleFields(reflect.TypeOf(campaign.Spec{})) {
			got, ok := ot.FieldByName(f.Name)
			if !ok || got.Index[0] != embed.Index[0] {
				t.Errorf("%s.%s does not resolve to the embedded Spec (index %v)", ot.Name(), f.Name, got.Index)
			}
		}
	}
}

func TestManifestWindows(t *testing.T) {
	m := &Manifest{Lo: 10, Hi: 45, Window: 15}
	got := m.windows()
	want := []Window{{Lo: 10, Hi: 25}, {Lo: 25, Hi: 40}, {Lo: 40, Hi: 45}}
	if len(got) != len(want) {
		t.Fatalf("windows %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windows %v, want %v", got, want)
		}
	}
}

// TestFleetChurn is the acceptance-criteria lock: 3 workers against one
// coordinator, one worker killed on its first lease, and the fleet still
// (a) reclaims and finishes the killed worker's window and (b) ends with
// the main corpus holding exactly the dedup-key set a single run over the
// same span finds.
func TestFleetChurn(t *testing.T) {
	const n = 90
	base := campaign.Config{
		Window:  campaign.Window{Lo: 0, Hi: n},
		Spec:    campaign.Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2, TrialsMax: 4}, MaxPerClass: -1},
		Workers: 2,
	}

	// Single-run baseline.
	whole := t.TempDir()
	wcfg := base
	wcfg.CorpusDir = whole
	if _, err := campaign.Run(context.Background(), wcfg); err != nil {
		t.Fatal(err)
	}
	wantKeys := readKeys(t, whole)
	if len(wantKeys) == 0 {
		t.Fatal("baseline run found nothing; the test needs findings to merge")
	}

	// The fleet over the same span. Worker w0 is killed (its context
	// cancelled, synchronously, so nothing it leased completes) the moment
	// it claims its first window — the lease is left to expire and must be
	// reclaimed and re-run by a surviving worker.
	dir := t.TempDir()
	var events0 []events.Event
	var mu sync.Mutex
	w0ctx, w0kill := context.WithCancel(context.Background())
	defer w0kill()
	w0sink := func(e events.Event) {
		mu.Lock()
		defer mu.Unlock()
		events0 = append(events0, e)
		if e.Kind == events.KindLease {
			w0kill()
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i, wctx := range []context.Context{w0ctx, ctx, ctx} {
		wg.Add(1)
		go func(i int, wctx context.Context) {
			defer wg.Done()
			var sink events.Sink
			if i == 0 {
				sink = w0sink
			}
			_, workerErrs[i] = RunWorker(wctx, dir, WorkerOptions{
				WorkerID: []string{"w0", "w1", "w2"}[i],
				Workers:  2,
				Poll:     25 * time.Millisecond,
				Events:   sink,
			})
		}(i, wctx)
	}

	var coordEvents []events.Event
	rep, err := RunCoordinator(ctx, Config{
		Spec:       campaign.Spec{Seed: base.Seed, Gen: base.Gen, Budget: base.Budget, MaxPerClass: base.MaxPerClass},
		CorpusDir:  dir,
		N:          n,
		WindowSize: 15,
		LeaseTTL:   450 * time.Millisecond,
		Poll:       25 * time.Millisecond,
		Events: func(e events.Event) {
			mu.Lock()
			defer mu.Unlock()
			coordEvents = append(coordEvents, e)
		},
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v (report %+v)", err, rep)
	}

	// The killed worker must have claimed something and died on it.
	mu.Lock()
	leased0 := 0
	for _, e := range events0 {
		if e.Kind == events.KindLease {
			leased0++
		}
	}
	mu.Unlock()
	if leased0 == 0 {
		t.Fatal("w0 never leased a window; the churn premise did not happen")
	}
	if workerErrs[0] == nil {
		t.Error("w0 finished cleanly; it was supposed to die mid-lease")
	}
	if workerErrs[1] != nil || workerErrs[2] != nil {
		t.Fatalf("surviving workers errored: %v, %v", workerErrs[1], workerErrs[2])
	}

	// The coordinator must have reclaimed w0's expired lease...
	if rep.Reclaimed == 0 {
		t.Error("no lease was reclaimed despite a killed worker")
	}
	reclaims := 0
	mu.Lock()
	for _, e := range coordEvents {
		if e.Kind == events.KindReclaim {
			reclaims++
		}
	}
	mu.Unlock()
	if reclaims != rep.Reclaimed {
		t.Errorf("%d reclaim events, report says %d", reclaims, rep.Reclaimed)
	}
	// ...and every window must have been finished by a survivor.
	if got := rep.WindowsByWorker["w1"] + rep.WindowsByWorker["w2"]; got != rep.Windows {
		t.Errorf("survivors completed %d of %d windows: %v", got, rep.Windows, rep.WindowsByWorker)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("merge errors: %v", rep.Errors)
	}

	// The merged main corpus equals the single run, key for key.
	gotKeys := readKeys(t, dir)
	if len(gotKeys) != len(wantKeys) {
		t.Errorf("fleet corpus has %d findings, the single run %d", len(gotKeys), len(wantKeys))
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("finding %.12s missing from the fleet corpus", k)
		}
	}
	for k := range gotKeys {
		if !wantKeys[k] {
			t.Errorf("finding %.12s in the fleet corpus but not the single run", k)
		}
	}

	// The run's protocol files are retired; the frontier advanced.
	if _, err := os.Stat(manifestPath(dir)); !os.IsNotExist(err) {
		t.Errorf("manifest still present after completion (err %v)", err)
	}
	if next := loadFrontier(dir, nil); next != n {
		t.Errorf("frontier at %d, want %d", next, n)
	}
}

// TestFleetFrontierAdvance: consecutive fleet runs cover consecutive
// spans — the frontier is the cross-run cursor.
func TestFleetFrontierAdvance(t *testing.T) {
	dir := t.TempDir()
	run := func() *Report {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			RunWorker(ctx, dir, WorkerOptions{WorkerID: "w", Poll: 10 * time.Millisecond})
		}()
		rep, err := RunCoordinator(ctx, Config{
			Spec:       campaign.Spec{Seed: 3, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1}},
			CorpusDir:  dir,
			N:          20,
			WindowSize: 10,
			LeaseTTL:   time.Second,
			Poll:       10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		<-done
		return rep
	}
	r1 := run()
	if r1.Lo != 0 || r1.Hi != 20 {
		t.Fatalf("run 1 span [%d, %d), want [0, 20)", r1.Lo, r1.Hi)
	}
	r2 := run()
	if r2.Lo != 20 || r2.Hi != 40 {
		t.Fatalf("run 2 span [%d, %d), want [20, 40)", r2.Lo, r2.Hi)
	}
}

// TestFleetManifestAdoption: a coordinator that dies mid-span leaves the
// manifest; the next coordinator adopts it (same span), but only under
// the same campaign identity.
func TestFleetManifestAdoption(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	cfg := Config{
		Spec:       campaign.Spec{Seed: 3, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1}},
		CorpusDir:  dir,
		N:          20,
		WindowSize: 10,
		LeaseTTL:   time.Second,
		Poll:       20 * time.Millisecond,
	}
	// No workers: the span cannot complete; the coordinator dies on ctx.
	if _, err := RunCoordinator(ctx, cfg); err == nil {
		t.Fatal("coordinator with no workers completed an uncovered span")
	}
	if _, err := os.Stat(manifestPath(dir)); err != nil {
		t.Fatalf("manifest not left behind for adoption: %v", err)
	}

	// A different campaign identity must refuse to adopt.
	bad := cfg
	bad.Seed = 99
	ctx2, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	if _, err := RunCoordinator(ctx2, bad); err == nil || !strings.Contains(err.Error(), "different seed") {
		t.Fatalf("mismatched adoption err = %v, want identity refusal", err)
	}

	// The same identity adopts the open span and finishes it.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel3()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx3, dir, WorkerOptions{WorkerID: "w", Poll: 10 * time.Millisecond})
	}()
	rep, err := RunCoordinator(ctx3, cfg)
	if err != nil {
		t.Fatalf("adopting coordinator: %v", err)
	}
	<-done
	if rep.Lo != 0 || rep.Hi != 20 {
		t.Errorf("adopted span [%d, %d), want [0, 20)", rep.Lo, rep.Hi)
	}
}

// TestFleetCorruptFrontier: a corrupt frontier file warns and restarts
// from 0 instead of erroring — the fleet-level analogue of the campaign's
// corrupt-cursor recovery.
func TestFleetCorruptFrontier(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(fleetDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(frontierPath(dir), []byte(`{"next_index": 4`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	next := loadFrontier(dir, func(e events.Event) {
		if e.Kind == events.KindWarning && strings.Contains(e.Detail, "corrupt fleet frontier") {
			warned = true
		}
	})
	if next != 0 {
		t.Errorf("corrupt frontier read as %d, want 0", next)
	}
	if !warned {
		t.Error("no corruption warning emitted")
	}
}
