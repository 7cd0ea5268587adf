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

// TestSamplersKeepFieldOrder: the trial loop hands draw's and vary's
// values straight to RunIndexed, whose compiled field accesses read
// records and headers by position. Both must therefore build exactly the
// declared fields in declared order, fresh or refilled into the previous
// draw's tree. Checked over the generator's parameter types on three
// lattices, observing at bottom and top.
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
					var a, b eval.Value
					for k := 0; k < 3; k++ {
						a = s.draw(a, draws)
						if msg := eval.FieldOrderMismatch(a, st.T); msg != "" {
							t.Fatalf("%s-%d: draw of %s: %s%s", spec, i, param.Name, param.Name, msg)
						}
						b = s.vary(b, a, draws)
						if msg := eval.FieldOrderMismatch(b, st.T); msg != "" {
							t.Fatalf("%s-%d: vary of %s at %s: %s%s", spec, i, param.Name, obs, param.Name, msg)
						}
					}
				}
			}
		}
	}
}

// TestVaryMatchesReference: vary derives run B's inputs exactly as the
// generic walk randomizeAbove (now only the reference's) does — the same
// value from the same draws, built fresh or refilled into a stale tree —
// for drawn values and for every edit a FixInputs hook can make that keeps
// the declared field order: a leaf replaced, or a record turned into a
// header or back, which is a shape vary copies unchanged.
func TestVaryMatchesReference(t *testing.T) {
	draws := new(eval.BatchRand)
	draws.Seed(43)
	var r1, r2, r3 eval.BatchRand
	edits := []struct {
		name string
		edit func(eval.Value) (eval.Value, bool)
	}{{"leaf flipped", flipLeaf}, {"kind swapped", swapKind}}
	checked := map[string]int{}
	n := int64(0)
	for _, p := range diffParams(t) {
		for _, obs := range p.lat.Elements() {
			s := compileSampler(p.st, obs, p.lat)
			a := s.draw(nil, draws)
			stale := s.draw(nil, draws)
			check := func(what string, in eval.Value) {
				t.Helper()
				n++
				r1.Seed(n)
				r2.Seed(n)
				r3.Seed(n)
				got := s.vary(nil, eval.Copy(in), &r1)
				want := randomizeAbove(eval.Copy(in), p.st, obs, p.lat, &r2)
				next := r1.Uint64()
				if !eval.ValueEqual(got, want) || next != r2.Uint64() {
					t.Fatalf("%s at %s, %s %s:\n  vary:      %s\n  reference: %s", p.where, obs, what, in, got, want)
				}
				stale = s.vary(stale, eval.Copy(in), &r3)
				if !eval.ValueEqual(stale, want) || r3.Uint64() != next {
					t.Fatalf("%s at %s, %s %s:\n  vary refilled: %s\n  reference:     %s", p.where, obs, what, in, stale, want)
				}
				checked[what]++
			}
			check("drawn", a)
			for _, e := range edits {
				for k := 0; ; k++ {
					b, ok := editNth(eval.Copy(a), k, e.edit)
					if !ok {
						break
					}
					if eval.FieldOrderMismatch(b, p.st.T) == "" {
						check(e.name, b)
					}
				}
			}
		}
	}
	for _, e := range edits {
		if checked[e.name] == 0 {
			t.Errorf("no input with a %s", e.name)
		}
	}
	t.Logf("inputs checked: %v", checked)
}

// swapKind turns a record into a header with the same fields and a header
// into a record.
func swapKind(v eval.Value) (eval.Value, bool) {
	switch x := v.(type) {
	case *eval.RecordVal:
		return &eval.HeaderVal{Valid: true, Fields: x.Fields}, true
	case *eval.HeaderVal:
		return &eval.RecordVal{Fields: x.Fields}, true
	}
	return v, false
}
