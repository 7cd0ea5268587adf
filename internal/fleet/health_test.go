package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// TestHealthChecker walks the verdict table: healthy needs an open
// manifest AND a fresh coordinator scan; each missing leg flips the
// handler to 503 with a body that says which leg failed.
func TestHealthChecker(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(fleetDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	hc := &HealthChecker{CorpusDir: dir, Metrics: reg, MaxScanAge: time.Minute}

	probe := func() (int, Health) {
		t.Helper()
		rec := httptest.NewRecorder()
		hc.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body not JSON: %v\n%s", err, rec.Body.String())
		}
		return rec.Code, h
	}

	// No manifest yet: 503, "not started".
	if code, h := probe(); code != http.StatusServiceUnavailable || h.Healthy {
		t.Fatalf("no-manifest probe: code %d, health %+v", code, h)
	}

	if err := writeJSONAtomic(manifestPath(dir), Manifest{Lo: 0, Hi: 20, Window: 10, LeaseTTL: time.Second}); err != nil {
		t.Fatal(err)
	}

	// Manifest open but the coordinator never scanned: still 503.
	if code, h := probe(); code != http.StatusServiceUnavailable || h.Healthy || !h.ManifestOpen {
		t.Fatalf("never-scanned probe: code %d, health %+v", code, h)
	}
	if _, h := probe(); !strings.Contains(h.Detail, "not scanned") {
		t.Errorf("never-scanned detail = %q", h.Detail)
	}

	// Fresh scan gauge: healthy.
	reg.Gauge("fleet_last_scan_unix_seconds").SetInt(time.Now().Unix())
	code, h := probe()
	if code != http.StatusOK || !h.Healthy {
		t.Fatalf("healthy probe: code %d, health %+v", code, h)
	}
	if h.Lo != 0 || h.Hi != 20 {
		t.Errorf("healthy probe span [%d, %d), want [0, 20)", h.Lo, h.Hi)
	}

	// Scan goes stale past MaxScanAge: stalled, 503.
	reg.Gauge("fleet_last_scan_unix_seconds").SetInt(time.Now().Add(-2 * time.Minute).Unix())
	if code, h := probe(); code != http.StatusServiceUnavailable || !strings.Contains(h.Detail, "stalled") {
		t.Fatalf("stalled probe: code %d, health %+v", code, h)
	}

	// Manifest retired mid-run (the coordinator's cleanup): 503 again even
	// with a fresh scan — the run is over, probes should say so.
	reg.Gauge("fleet_last_scan_unix_seconds").SetInt(time.Now().Unix())
	if err := os.Remove(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	if code, h := probe(); code != http.StatusServiceUnavailable || h.ManifestOpen {
		t.Fatalf("retired probe: code %d, health %+v", code, h)
	}
}

// TestFleetMetricsLive runs a real two-worker fleet with the same wiring
// p4fuzzd uses — coordinator registry, per-worker registries shipped as
// KindMetrics events into a merged View, an HTTP server over the view —
// and asserts the acceptance surface: the live /metrics exposition grows
// the pipeline, campaign, and fleet series while the run is up, /healthz
// is 200 mid-run, and retiring the manifest flips it to 503.
func TestFleetMetricsLive(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	view := metrics.NewView(reg)
	hc := &HealthChecker{CorpusDir: dir, Metrics: reg, MaxScanAge: time.Minute}

	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.ExpositionHandler(view.Snapshot))
	mux.Handle("/healthz", hc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 32*1024)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	// Absorb worker snapshots from the event stream, exactly as p4fuzzd's
	// worker-stdout scanner does; track healthz codes seen mid-run.
	var mu sync.Mutex
	var sawHealthyMidRun bool
	sink := func(e events.Event) {
		if e.Kind != events.KindMetrics || e.Snapshot == nil {
			return
		}
		mu.Lock()
		view.Absorb(e.Worker, *e.Snapshot)
		mu.Unlock()
		if code, _ := get("/healthz"); code == http.StatusOK {
			mu.Lock()
			sawHealthyMidRun = true
			mu.Unlock()
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			wreg := metrics.NewRegistry()
			RunWorker(ctx, dir, WorkerOptions{
				WorkerID: id,
				Workers:  2,
				Poll:     10 * time.Millisecond,
				Events:   sink,
				Metrics:  wreg,
			})
		}(id)
	}
	rep, err := RunCoordinator(ctx, Config{
		Spec:       campaign.Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1}, MaxPerClass: -1},
		CorpusDir:  dir,
		N:          30,
		WindowSize: 10,
		LeaseTTL:   time.Second,
		Poll:       10 * time.Millisecond,
		Metrics:    reg,
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if rep.Windows == 0 {
		t.Fatal("fleet completed no windows; nothing to assert on")
	}

	if !sawHealthyMidRun {
		t.Error("/healthz never returned 200 while the run was live")
	}

	// The merged exposition after the run must carry the acceptance
	// series: per-stage pipeline timings and campaign counters from the
	// workers' absorbed snapshots (worker-labeled), and the coordinator's
	// own fleet gauges/counters.
	_, body := get("/metrics")
	for _, want := range []string{
		`pipeline_stage_seconds_bucket{`,
		`campaign_jobs_total{worker="w`,
		"fleet_active_leases",
		"fleet_windows_done_total",
		"fleet_last_scan_unix_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q after the run\n%s", want, body)
		}
	}

	// The run is over: the manifest was retired, so /healthz must be 503.
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after retirement: code %d, body %s", code, body)
	}
}
