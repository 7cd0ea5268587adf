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
// as walk builds it, and after every restore that undoes what a run wrote
// into it. Each restore must also bring back the tree walk built, value
// for value. Checked over the generator's parameter types on three
// lattices.
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
			for _, param := range ctrl.Params {
				st := pts[param.Name]
				p := &plan{lat: lat, obs: lat.Bottom(), args: make([]eval.Value, 1)}
				if reason := p.walk(st, &p.args[0]); reason != "" {
					continue
				}
				var built eval.Value
				for round := 0; round < 3; round++ {
					p.restore()
					v := p.args[0]
					if msg := eval.FieldOrderMismatch(v, st.T); msg != "" {
						t.Fatalf("%s-%d: restore %d of %s: %s%s", spec, i, round, param.Name, param.Name, msg)
					}
					if built == nil {
						built = eval.Copy(v)
					} else if !eval.ValueEqual(v, built) {
						t.Fatalf("%s-%d: restore %d of %s: %s, want %s", spec, i, round, param.Name, v, built)
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
// leaves with other values, container slots with fresh copies, and clear
// header validity.
func scribble(v eval.Value) {
	switch v := v.(type) {
	case *eval.RecordVal:
		for i := range v.Fields {
			scribble(v.Fields[i].Val)
			v.Fields[i].Val = mangle(v.Fields[i].Val)
		}
	case *eval.HeaderVal:
		v.Valid = false
		for i := range v.Fields {
			scribble(v.Fields[i].Val)
			v.Fields[i].Val = mangle(v.Fields[i].Val)
		}
	case *eval.StackVal:
		for i := range v.Elems {
			scribble(v.Elems[i])
			v.Elems[i] = mangle(v.Elems[i])
		}
	}
}

// mangle returns a bit leaf with every bit flipped and a copy of
// anything else.
func mangle(v eval.Value) eval.Value {
	if b, ok := v.(eval.BitVal); ok {
		return eval.BoxBit(b.W, ^b.V)
	}
	return eval.Copy(v)
}
