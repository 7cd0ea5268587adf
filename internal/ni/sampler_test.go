package ni

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
)

// TestSamplersKeepFieldOrder: the indexed fast path hands draw's and
// vary's values straight to RunIndexed, whose compiled field accesses read
// records and headers by position. Both must therefore build exactly the
// declared fields in declared order. Checked over the generator's
// parameter types on three lattices, observing at bottom and top.
func TestSamplersKeepFieldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	draws := new(eval.BatchRand)
	draws.Seed(29)
	for _, spec := range []string{"two-point", "chain:4", "nparty:3"} {
		cfg := gen.DefaultConfig()
		cfg.Lattice = spec
		lat, err := cfg.ResolveLattice()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			prog, err := parser.Parse(fmt.Sprintf("%s-%d.p4", spec, i), gen.Random(rng, cfg))
			if err != nil {
				t.Fatal(err)
			}
			ctrl, pts, err := (&Experiment{Prog: prog, Lat: lat}).ControlParams()
			if err != nil {
				t.Fatal(err)
			}
			for _, obs := range []lattice.Label{lat.Bottom(), lat.Top()} {
				for _, param := range ctrl.Params {
					st := pts[param.Name]
					s := compileSampler(st, obs, lat)
					for k := 0; k < 3; k++ {
						a := s.draw(draws)
						if msg := eval.FieldOrderMismatch(a, st.T); msg != "" {
							t.Fatalf("%s-%d: draw of %s: %s%s", spec, i, param.Name, param.Name, msg)
						}
						b := s.vary(a, draws)
						if msg := eval.FieldOrderMismatch(b, st.T); msg != "" {
							t.Fatalf("%s-%d: vary of %s at %s: %s%s", spec, i, param.Name, obs, param.Name, msg)
						}
					}
				}
			}
		}
	}
}
