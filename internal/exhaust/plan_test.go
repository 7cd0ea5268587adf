package exhaust

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/ni"
	"repro/internal/parser"
)

// TestBuildKeepsFieldOrder: compiled field accesses read records and
// headers by position, so every argument tree the sweep lends to
// RunIndexed must have exactly its declared fields in declared order —
// on the first build, which allocates the containers, and on every later
// one, which restores them in place after a run wrote into them. Checked
// over the generator's parameter types on three lattices.
func TestBuildKeepsFieldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
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
			ctrl, pts, err := (&ni.Experiment{Prog: prog, Lat: lat}).ControlParams()
			if err != nil {
				t.Fatal(err)
			}
			p := &plan{lat: lat, obs: lat.Bottom()}
			for _, param := range ctrl.Params {
				st := pts[param.Name]
				root, reason := p.walk(st)
				if reason != "" {
					continue
				}
				for round := 0; round < 3; round++ {
					v := p.build(root)
					if msg := eval.FieldOrderMismatch(v, st.T); msg != "" {
						t.Fatalf("%s-%d: build %d of %s: %s%s", spec, i, round, param.Name, param.Name, msg)
					}
					scribble(v)
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no enumerable parameter was built")
	}
}

// scribble does to v what a run may do to a lent argument tree: replace
// container slots with fresh copies and clear header validity.
func scribble(v eval.Value) {
	switch v := v.(type) {
	case *eval.RecordVal:
		for i := range v.Fields {
			scribble(v.Fields[i].Val)
			v.Fields[i].Val = eval.Copy(v.Fields[i].Val)
		}
	case *eval.HeaderVal:
		v.Valid = false
		for i := range v.Fields {
			scribble(v.Fields[i].Val)
			v.Fields[i].Val = eval.Copy(v.Fields[i].Val)
		}
	case *eval.StackVal:
		for i := range v.Elems {
			scribble(v.Elems[i])
			v.Elems[i] = eval.Copy(v.Elems[i])
		}
	}
}
