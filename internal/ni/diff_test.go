package ni

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/progs"
	"repro/internal/types"
)

// diffParam is one control parameter's security type under its lattice.
type diffParam struct {
	where string
	st    types.SecType
	lat   lattice.Lattice
}

// diffParams collects the parameter types of generated programs on
// two-point and chain:4 and of both variants of every case study.
func diffParams(t *testing.T) []diffParam {
	t.Helper()
	var out []diffParam
	add := func(prog *ast.Program, lat lattice.Lattice) {
		ctrl, pts, err := (&Experiment{Prog: prog, Lat: lat}).ControlParams()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ctrl.Params {
			out = append(out, diffParam{where: prog.File + ":" + p.Name, st: pts[p.Name], lat: lat})
		}
	}
	rng := rand.New(rand.NewSource(31))
	for _, spec := range []string{"two-point", "chain:4"} {
		cfg := gen.DefaultConfig()
		cfg.Lattice = spec
		lat, err := cfg.ResolveLattice()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			prog, err := parser.Parse(fmt.Sprintf("%s-%d.p4", spec, i), gen.Random(rng, cfg))
			if err != nil {
				t.Fatal(err)
			}
			add(prog, lat)
		}
	}
	for _, cs := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed} {
			prog, err := parser.Parse(cs.FileName(v), cs.Source(v))
			if err != nil {
				t.Fatal(err)
			}
			add(prog, cs.Lattice())
		}
	}
	return out
}

// TestObservableDiffMatchesReference: the compiled comparator must give
// exactly the reference walk's answer — ok, and on a mismatch the same
// Where, A and B — at every observer of each parameter type's lattice.
// The pairs are: two independent random values; a value and its copy; the
// value and each copy of it that differs in exactly one leaf, secret or
// observable, at any depth; and the value and each copy of it with one
// record or header cut short, a shape only the reference reads.
func TestObservableDiffMatchesReference(t *testing.T) {
	draws := new(eval.BatchRand)
	draws.Seed(37)
	compared, mismatched := 0, 0
	for _, p := range diffParams(t) {
		for _, obs := range p.lat.Elements() {
			c := ObservableDiff(p.st, obs, p.lat)
			check := func(what string, a, b eval.Value) {
				t.Helper()
				got, gotOK := c.Diff(a, b)
				want, wantOK := diffObs(a, b, p.st, obs, p.lat)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s at %s, %s:\n  a = %s\n  b = %s\n  comparator: %v %+v\n  reference:  %v %+v",
						p.where, obs, what, a, b, gotOK, got, wantOK, want)
				}
				compared++
				if !gotOK {
					mismatched++
				}
			}
			a := eval.RandomFrom(p.st.T, draws)
			check("random pair", a, eval.RandomFrom(p.st.T, draws))
			check("copy", a, eval.Copy(a))
			for k := 0; ; k++ {
				b := eval.Copy(a)
				b, ok := editNth(b, k, flipLeaf)
				if !ok {
					break
				}
				check(fmt.Sprintf("leaf %d flipped", k), a, b)
			}
			for k := 0; ; k++ {
				b := eval.Copy(a)
				b, ok := editNth(b, k, truncate)
				if !ok {
					break
				}
				check(fmt.Sprintf("container %d cut short", k), a, b)
			}
		}
	}
	if mismatched == 0 || mismatched == compared {
		t.Fatalf("%d of %d pairs differ: the inputs do not exercise both outcomes", mismatched, compared)
	}
	t.Logf("%d pairs compared, %d differ observably", compared, mismatched)
}

// editNth applies edit, in place, to the k-th node of v in pre-order
// (counting only nodes edit applies to); it returns v with that node
// replaced and whether v has one.
func editNth(v eval.Value, k int, edit func(eval.Value) (eval.Value, bool)) (eval.Value, bool) {
	return editWalk(v, &k, edit)
}

func editWalk(v eval.Value, n *int, edit func(eval.Value) (eval.Value, bool)) (eval.Value, bool) {
	if nv, ok := edit(v); ok {
		if *n == 0 {
			return nv, true
		}
		*n--
	}
	var slots []*eval.Value
	switch x := v.(type) {
	case *eval.RecordVal:
		for i := range x.Fields {
			slots = append(slots, &x.Fields[i].Val)
		}
	case *eval.HeaderVal:
		for i := range x.Fields {
			slots = append(slots, &x.Fields[i].Val)
		}
	case *eval.StackVal:
		for i := range x.Elems {
			slots = append(slots, &x.Elems[i])
		}
	}
	for _, s := range slots {
		if nv, ok := editWalk(*s, n, edit); ok {
			*s = nv
			return v, true
		}
	}
	return v, false
}

// flipLeaf changes a bit, bool or int leaf to another value of its type.
func flipLeaf(v eval.Value) (eval.Value, bool) {
	switch x := v.(type) {
	case eval.BitVal:
		return eval.BoxBit(x.W, x.V^1), true
	case eval.BoolVal:
		return !x, true
	case eval.IntVal:
		return x + 1, true
	}
	return v, false
}

// truncate drops the last field of a record or header.
func truncate(v eval.Value) (eval.Value, bool) {
	switch x := v.(type) {
	case *eval.RecordVal:
		if len(x.Fields) > 0 {
			return &eval.RecordVal{Fields: x.Fields[:len(x.Fields)-1]}, true
		}
	case *eval.HeaderVal:
		if len(x.Fields) > 0 {
			return &eval.HeaderVal{Valid: x.Valid, Fields: x.Fields[:len(x.Fields)-1]}, true
		}
	}
	return v, false
}

// TestObservableDiffAllocs: comparing two values that agree on every
// observable leaf — every trial of a clean campaign and every assignment
// of a clean sweep — allocates nothing.
func TestObservableDiffAllocs(t *testing.T) {
	draws := new(eval.BatchRand)
	draws.Seed(41)
	checked := 0
	for _, p := range diffParams(t) {
		for _, obs := range p.lat.Elements() {
			c := ObservableDiff(p.st, obs, p.lat)
			a := eval.RandomFrom(p.st.T, draws)
			b := eval.Copy(a)
			if n := testing.AllocsPerRun(10, func() {
				if _, ok := c.Diff(a, b); !ok {
					t.Fatalf("%s at %s: a value differs from its copy", p.where, obs)
				}
			}); n != 0 {
				t.Fatalf("%s at %s: %v allocations per matching comparison, want 0", p.where, obs, n)
			}
			checked++
		}
	}
	t.Logf("%d parameter types × observers checked", checked)
}
