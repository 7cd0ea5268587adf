package metrics

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this is the registry's
// race-cleanliness proof, and the final values prove no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("jobs_total")
			ga := r.Gauge("queue_depth")
			h := r.Histogram("latency_seconds", DurationBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * per
	if got := r.Counter("jobs_total").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("queue_depth").Value(); got != want {
		t.Errorf("gauge = %v, want %d", got, want)
	}
	h := r.Histogram("latency_seconds", DurationBuckets)
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got, wantSum := h.Sum(), 0.001*want; got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, wantSum)
	}
}

// TestHistogramBuckets pins the bucket-boundary semantics: an observation
// equal to a bound lands in that bound's bucket (le is inclusive), one
// just above spills to the next, and anything past the last bound goes to
// the implicit +Inf bucket (visible only through Count).
func TestHistogramBuckets(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	cases := []struct {
		v    float64
		want []int64 // cumulative counts for bounds after observing only v
	}{
		{0.05, []int64{1, 1, 1}},
		{0.1, []int64{1, 1, 1}},       // equal to bound: inclusive
		{0.1000001, []int64{0, 1, 1}}, // just above: next bucket
		{1, []int64{0, 1, 1}},
		{5, []int64{0, 0, 1}},
		{10, []int64{0, 0, 1}},
		{11, []int64{0, 0, 0}}, // overflow: +Inf only
	}
	for _, tc := range cases {
		r := NewRegistry()
		h := r.Histogram("h", bounds)
		h.Observe(tc.v)
		snap := r.Snapshot()
		if len(snap.Histograms) != 1 {
			t.Fatalf("observe(%v): %d histogram samples", tc.v, len(snap.Histograms))
		}
		hs := snap.Histograms[0]
		if len(hs.Buckets) != len(bounds) {
			t.Fatalf("observe(%v): %d buckets, want %d (finite only)", tc.v, len(hs.Buckets), len(bounds))
		}
		for i, b := range hs.Buckets {
			if b.Le != bounds[i] {
				t.Errorf("observe(%v): bucket[%d].Le = %v, want %v", tc.v, i, b.Le, bounds[i])
			}
			if b.Count != tc.want[i] {
				t.Errorf("observe(%v): bucket[le=%v] = %d, want %d", tc.v, b.Le, b.Count, tc.want[i])
			}
		}
		if hs.Count != 1 {
			t.Errorf("observe(%v): count = %d, want 1", tc.v, hs.Count)
		}
	}
}

// buildSample populates a registry with one series of each kind, labeled
// and unlabeled, in deliberately non-sorted registration order.
func buildSample() *Registry {
	r := NewRegistry()
	r.Counter("campaign_jobs_total").Add(42)
	r.Counter("campaign_findings_total", "class", "soundness-violation").Add(3)
	r.Counter("campaign_findings_total", "class", "generator-bug").Add(1)
	r.Gauge("corpus_size").SetInt(17)
	h := r.Histogram("pipeline_stage_seconds", []float64{0.001, 0.01, 0.1}, "stage", "parse")
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2) // +Inf
	return r
}

// TestExpositionGolden locks the exact Prometheus text rendering.
func TestExpositionGolden(t *testing.T) {
	snap := buildSample().Snapshot()
	var b strings.Builder
	if err := snap.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE campaign_findings_total counter
campaign_findings_total{class="generator-bug"} 1
campaign_findings_total{class="soundness-violation"} 3
# TYPE campaign_jobs_total counter
campaign_jobs_total 42
# TYPE corpus_size gauge
corpus_size 17
# TYPE pipeline_stage_seconds histogram
pipeline_stage_seconds_bucket{le="0.001",stage="parse"} 2
pipeline_stage_seconds_bucket{le="0.01",stage="parse"} 2
pipeline_stage_seconds_bucket{le="0.1",stage="parse"} 3
pipeline_stage_seconds_bucket{le="+Inf",stage="parse"} 4
pipeline_stage_seconds_sum{stage="parse"} 2.051
pipeline_stage_seconds_count{stage="parse"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotJSONGolden locks the snapshot's JSON schema (modulo the
// timestamp): stable ordering, finite bucket bounds only, non-nil slices.
func TestSnapshotJSONGolden(t *testing.T) {
	snap := buildSample().Snapshot()
	snap.Time = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "time": "2026-01-02T03:04:05Z",
  "counters": [
    {
      "name": "campaign_findings_total",
      "labels": {
        "class": "generator-bug"
      },
      "value": 1
    },
    {
      "name": "campaign_findings_total",
      "labels": {
        "class": "soundness-violation"
      },
      "value": 3
    },
    {
      "name": "campaign_jobs_total",
      "value": 42
    }
  ],
  "gauges": [
    {
      "name": "corpus_size",
      "value": 17
    }
  ],
  "histograms": [
    {
      "name": "pipeline_stage_seconds",
      "labels": {
        "stage": "parse"
      },
      "count": 4,
      "sum": 2.051,
      "buckets": [
        {
          "le": 0.001,
          "count": 2
        },
        {
          "le": 0.01,
          "count": 2
        },
        {
          "le": 0.1,
          "count": 3
        }
      ]
    }
  ]
}`
	if got := string(data); got != want {
		t.Errorf("snapshot JSON mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEmptySnapshotJSON: an empty (or nil) registry still marshals with
// all three top-level keys present as arrays — the shape the CI jq gate
// requires of every metrics.json.
func TestEmptySnapshotJSON(t *testing.T) {
	for _, r := range []*Registry{nil, NewRegistry()} {
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"time", "counters", "gauges", "histograms"} {
			if _, ok := m[key]; !ok {
				t.Errorf("empty snapshot lacks %q: %s", key, data)
			}
		}
		if string(m["counters"]) != "[]" {
			t.Errorf("counters = %s, want []", m["counters"])
		}
	}
}

// TestNilSafety: a nil registry hands out nil handles whose methods no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h", DurationBuckets).Observe(1)
	r.Histogram("h", DurationBuckets).ObserveDuration(time.Second)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}
	if v := r.Histogram("h", nil).Count(); v != 0 {
		t.Errorf("nil histogram count = %d", v)
	}
}

// TestWriteFileRoundTrip: WriteFile then ReadFile reproduces the snapshot,
// and the lookup helpers find series by name+labels.
func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteFile(path, buildSample().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Counter("campaign_jobs_total"); v != 42 {
		t.Errorf("campaign_jobs_total = %v, want 42", v)
	}
	if v := got.Counter("campaign_findings_total", "class", "soundness-violation"); v != 3 {
		t.Errorf("findings{soundness-violation} = %v, want 3", v)
	}
	if v := got.Counter("campaign_findings_total", "class", "no-such"); v != 0 {
		t.Errorf("absent series = %v, want 0", v)
	}
	if v := got.Gauge("corpus_size"); v != 17 {
		t.Errorf("corpus_size = %v, want 17", v)
	}
}

// TestUpdateFileMerges: UpdateFile overwrites only the series the new
// snapshot carries — series another process persisted (a fleet run's
// worker-labeled telemetry) survive a later process's write (a triage
// session's op timings). The clobber this prevents: p4fuzz triage
// running after p4fuzzd on the same corpus must not erase the fleet snapshot.
func TestUpdateFileMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")

	fleet := NewRegistry()
	fleet.Counter("fleet_windows_done_total").Add(8)
	fleet.Counter("campaign_jobs_total", "worker", "local-0").Add(300)
	fleet.Histogram("pipeline_stage_seconds", DurationBuckets, "stage", "parse").Observe(0.002)
	if err := UpdateFile(path, fleet.Snapshot()); err != nil { // no file yet: plain write
		t.Fatal(err)
	}

	triage := NewRegistry()
	triage.Histogram("session_op_seconds", DurationBuckets, "op", "triage").Observe(0.5)
	triage.Counter("campaign_jobs_total", "worker", "local-0").Add(1) // same key: replaces
	if err := UpdateFile(path, triage.Snapshot()); err != nil {
		t.Fatal(err)
	}

	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Counter("fleet_windows_done_total"); v != 8 {
		t.Errorf("fleet series clobbered: fleet_windows_done_total = %v, want 8", v)
	}
	if v := got.Counter("campaign_jobs_total", "worker", "local-0"); v != 1 {
		t.Errorf("same-key series not replaced: jobs{local-0} = %v, want 1", v)
	}
	stages, ops := 0, 0
	for _, h := range got.Histograms {
		switch h.Name {
		case "pipeline_stage_seconds":
			stages++
		case "session_op_seconds":
			ops++
		}
	}
	if stages != 1 || ops != 1 {
		t.Errorf("histograms after merge: %d stage + %d op series, want 1 + 1", stages, ops)
	}
}

// TestViewMerge: remote snapshots appear under worker labels next to local
// series, and a second Absorb for the same worker replaces the first.
func TestViewMerge(t *testing.T) {
	local := NewRegistry()
	local.Gauge("fleet_active_leases").SetInt(2)
	v := NewView(local)

	w1 := NewRegistry()
	w1.Counter("campaign_jobs_total").Add(10)
	v.Absorb("w1", w1.Snapshot())
	w1.Counter("campaign_jobs_total").Add(5)
	v.Absorb("w1", w1.Snapshot()) // replaces, not accumulates

	w2 := NewRegistry()
	w2.Counter("campaign_jobs_total").Add(7)
	v.Absorb("w2", w2.Snapshot())

	snap := v.Snapshot()
	if got := snap.Gauge("fleet_active_leases"); got != 2 {
		t.Errorf("local gauge = %v, want 2", got)
	}
	if got := snap.Counter("campaign_jobs_total", "worker", "w1"); got != 15 {
		t.Errorf("w1 jobs = %v, want 15", got)
	}
	if got := snap.Counter("campaign_jobs_total", "worker", "w2"); got != 7 {
		t.Errorf("w2 jobs = %v, want 7", got)
	}
	var b strings.Builder
	if err := snap.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `campaign_jobs_total{worker="w1"} 15`) {
		t.Errorf("exposition missing merged worker series:\n%s", b.String())
	}
}

// TestLabelEscaping: label values with quotes/backslashes/newlines render
// escaped in the exposition rather than corrupting it.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.Snapshot().WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	want := `c{k="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition = %q, want contains %q", b.String(), want)
	}
}
