package ni_test

import (
	"math"
	"testing"

	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

// TestTrialAllocs pins the compiled engine's trial allocations with no
// FixInputs: the draws of both runs and whatever the program constructs,
// nothing for the trial loop itself. Each control of each fixed case
// study runs against its populated control plane; the count is what 64
// trials allocate beyond the first, so per-round setup cancels out. The
// ceilings are the counts of the separate compiled fast path the single
// trial loop replaced; a loop that taxes every trial (a map, a closure,
// a copy) shows up here.
func TestTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ceilings := map[string]float64{
		"D2R/D2R_Ingress":            5668,
		"App/App_Ingress":            1885,
		"Lattice/Alice_Ingress":      2464,
		"Lattice/Bob_Ingress":        2464,
		"Topology/Obfuscate_Ingress": 2848,
		"Cache/Cache_Ingress":        1694,
		"NetChain/NetChain_Ingress":  1118,
		"Stateful/Stateful_Ingress":  1445,
	}
	checked := 0
	for _, p := range progs.All() {
		prog := parser.MustParse(p.FileName(progs.Fixed), p.Source(progs.Fixed))
		for _, ctrl := range prog.Controls {
			key := p.Name + "/" + ctrl.Name
			ceiling, ok := ceilings[key]
			if !ok {
				t.Fatalf("%s: no recorded ceiling", key)
			}
			e := &ni.Experiment{Prog: prog, Lat: p.Lattice(), Control: ctrl.Name, CP: caseStudyCP(t, p.Name)}
			if e.Engine() == nil {
				t.Fatalf("%s: program did not compile", key)
			}
			// The least of three measurements: a stray allocation outside
			// the trials (about one run in a hundred shows one) only adds.
			run := func(n int) float64 {
				least := math.Inf(1)
				for range 3 {
					least = min(least, testing.AllocsPerRun(5, func() {
						if _, err := e.Run(n, 13); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			if extra := run(65) - run(1); extra > ceiling {
				t.Errorf("%s: 64 trials allocate %v, ceiling %v", key, extra, ceiling)
			}
			checked++
		}
	}
	if checked != len(ceilings) {
		t.Fatalf("checked %d controls, %d ceilings recorded", checked, len(ceilings))
	}
}
