package difftest_test

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/pipeline"
)

// TestCampaignDeterministic checks that the verdict tally Classify
// produces over a campaign does not depend on the worker count: one
// sequential worker and eight concurrent ones classify the same window
// into the same counts.
func TestCampaignDeterministic(t *testing.T) {
	run := func(workers int) *campaign.Report {
		rep, err := campaign.Run(context.Background(), campaign.Config{
			Window:  campaign.Window{Lo: 0, Hi: 60},
			Spec:    campaign.Spec{Seed: 99, Budget: pipeline.Budget{Trials: 4, TrialsMax: -1}},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	total := 0
	for _, n := range a.Counts {
		total += n
	}
	if total != 60 {
		t.Errorf("classified %d programs, want 60", total)
	}
	if a.Counts != b.Counts {
		t.Errorf("verdict counts depend on worker count: %v vs %v", a.Counts, b.Counts)
	}
}
