package campaign

import (
	"context"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// TestCampaignMetrics: a campaign with a registry attached (a) counts
// every analyzed job and every persisted finding, (b) stamps throughput
// rates onto its progress events, (c) ships periodic KindMetrics
// snapshots plus one final snapshot that already reflects the findings,
// and (d) times its stream and finalize phases once each.
func TestCampaignMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	var progress, snaps []events.Event
	rep, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 60},
		Spec:      Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 2}, MaxPerClass: -1},
		Workers:   2,
		CorpusDir: t.TempDir(),
		Metrics:   reg,
		Events: func(e events.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case events.KindProgress:
				progress = append(progress, e)
			case events.KindMetrics:
				snaps = append(snaps, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := int(snap.Counter("campaign_jobs_total")); got != rep.Analyzed {
		t.Errorf("campaign_jobs_total = %d, report analyzed %d", got, rep.Analyzed)
	}
	if got := int(snap.Counter("pipeline_jobs_total")); got < rep.Analyzed {
		t.Errorf("pipeline_jobs_total = %d, want >= %d (every analyzed job ran the pipeline)", got, rep.Analyzed)
	}
	var findings float64
	for _, c := range snap.Counters {
		if c.Name == "campaign_findings_total" {
			findings += c.Value
		}
	}
	if int(findings) != rep.NewFindings {
		t.Errorf("campaign_findings_total sums to %d, report has %d new findings", int(findings), rep.NewFindings)
	}

	if rep.NewFindings == 0 {
		t.Fatal("no findings; the finalize phase had nothing to do")
	}
	for _, phase := range []string{"stream", "finalize"} {
		var h *metrics.HistogramSample
		for i := range snap.Histograms {
			if hs := &snap.Histograms[i]; hs.Name == "campaign_phase_seconds" && hs.Labels["phase"] == phase {
				h = hs
			}
		}
		switch {
		case h == nil:
			t.Errorf("no campaign_phase_seconds{phase=%q} series", phase)
		case h.Count != 1 || h.Sum <= 0:
			t.Errorf("campaign_phase_seconds{phase=%q}: count %d, sum %v; want one positive observation", phase, h.Count, h.Sum)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(progress) == 0 {
		t.Fatal("no progress events")
	}
	rated := 0
	for _, e := range progress {
		if e.JobsPerSec > 0 {
			rated++
		}
	}
	if rated == 0 {
		t.Error("no progress event carried a jobs/sec rate despite an attached registry")
	}

	if len(snaps) == 0 {
		t.Fatal("no KindMetrics events on the stream")
	}
	last := snaps[len(snaps)-1]
	if last.Snapshot == nil {
		t.Fatal("KindMetrics event without a snapshot payload")
	}
	// The final snapshot is emitted after finalization, so its finding
	// counters must agree with the report, not trail it.
	var lastFindings float64
	for _, c := range last.Snapshot.Counters {
		if c.Name == "campaign_findings_total" {
			lastFindings += c.Value
		}
	}
	if int(lastFindings) != rep.NewFindings {
		t.Errorf("final snapshot records %d findings, report %d", int(lastFindings), rep.NewFindings)
	}
}
