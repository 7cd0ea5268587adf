package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test holds the output to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smaller returns a campaign workload shrunk to jobs programs per campaign,
// so that a self-test run takes seconds.
func smaller(w campaignWorkload, jobs int) workload {
	w.jobs = jobs
	return func(ctx context.Context, seed int64, d time.Duration, traced bool, work string) (*result, error) {
		return runCampaignWorkload(ctx, w, seed, d, traced, work)
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and checks
// that each emits exactly the metrics BENCHMARK.json names with their units,
// that no operation failed, and that the traced replay agrees with the
// session it replays.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir("..") // the benchmark runs from the repository root
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	short := map[string]workload{
		"typecheck":           runTypecheck,
		"campaign-adaptive":   smaller(adaptiveWorkload, 300),
		"campaign-exhaustive": smaller(exhaustiveWorkload, 20),
	}
	if len(sp.Workloads) != len(short) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(short))
	}
	for _, wl := range sp.Workloads {
		run, ok := short[wl.Name]
		if !ok || workloads[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, traced), func(t *testing.T) {
				res, err := runOne(run, 7, time.Second, traced)
				if err != nil {
					t.Fatal(err)
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				got := map[string]metric{}
				for _, m := range res.metrics {
					got[m.name] = m
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case g.unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.unit, m.Unit)
					case !traced && g.value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, g.value)
					}
				}
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("error_rate: %d failed of %d attempted, want 0 of > 0", res.failed, res.attempted)
				}
				for _, b := range res.broken {
					t.Errorf("traced replay: %s", b)
				}
			})
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("outer", 1)
	time.Sleep(2 * time.Millisecond)
	child := tr.begin("inner", 1)
	time.Sleep(5 * time.Millisecond)
	tr.endAs(child, "renamed")
	tr.end(root)
	st := tr.stats()
	outer, inner := st["outer"], st["renamed"]
	if outer == nil || inner == nil || st["inner"] != nil {
		t.Fatalf("stats keyed %v, want outer and renamed", st)
	}
	if outer.self+inner.total != outer.total {
		t.Errorf("outer self %v + inner %v != outer total %v", outer.self, inner.total, outer.total)
	}
	if outer.self >= inner.total {
		t.Errorf("outer self %v not below the nested span's %v", outer.self, inner.total)
	}
	if tr.spans[child].Parent != root {
		t.Errorf("inner span's parent = %d, want %d", tr.spans[child].Parent, root)
	}
	var off *tracer
	off.end(off.begin("ignored", 0)) // a nil tracer records nothing
}
