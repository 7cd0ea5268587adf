package ni

import (
	"testing"

	"repro/internal/eval"
)

// DrawAllocs reports what drawing one single-packet trial's inputs from
// scratch allocates under e's trial plan: run A's draw and run B's vary of
// every parameter, into no previous tree.
func DrawAllocs(e *Experiment) (float64, error) {
	p, err := e.trialPlan()
	if err != nil {
		return 0, err
	}
	var rng eval.BatchRand
	rng.Seed(1)
	return testing.AllocsPerRun(5, func() {
		for _, s := range p.inputs() {
			s.vary(nil, s.draw(nil, &rng), &rng)
		}
	}), nil
}
