package ni_test

// The trial plan an Experiment caches, and the input trees each trial
// refills, must be invisible in results: one Experiment driven through
// adaptive rounds, flat rounds, observer and control changes and the
// exhaustive oracle reports exactly what a fresh Experiment per call
// reports, and what the reference loop (fresh maps, the interpreter, no
// plan) reports. The adversarial programs below mutate their inputs the
// ways a run may — whole-struct assignments into nested fields, stack
// element writes, header-typed copies — and a FixInputs hook clears
// header validity, so a refill that left any of it behind would show up
// in the next trial's draws.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/eval"
	"repro/internal/exhaust"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

// adversarialPrograms write their inputs in place in every way a compiled
// run may: they replace nested structs and headers wholesale, write stack
// elements (whole and by field, at constant and computed indices), and
// leak high data into low fields on some inputs only, so violations land
// in some trials and not others. The last has two controls with different
// parameters, so a plan kept across a Control change would show.
var adversarialPrograms = []string{`
struct pair_t { <bit<8>, low> a; <bit<8>, high> b; }
struct meta_t { pair_t p; pair_t q; <bit<8>, low> z; <bit<8>, high> s; }
control C(inout meta_t m) {
    apply {
        m.q = m.p;
        m.q.a = m.q.a + 8w1;
        pair_t t = m.q;
        t.b = t.a;
        m.p = t;
        if (m.s == 8w3) {
            m.z = 8w1;
        }
        m.q.b = m.s;
    }
}`, `
header pair_t { <bit<8>, low> a; <bit<8>, high> b; }
struct headers { pair_t ps[3]; pair_t h; <bit<2>, low> i; <bit<8>, low> z; }
control C(inout headers hdr) {
    apply {
        hdr.ps[1] = hdr.ps[0];
        hdr.h = hdr.ps[2];
        hdr.ps[2].b = hdr.ps[1].a;
        if (hdr.ps[0].b < 8w16) {
            hdr.ps[hdr.i].a = hdr.ps[1].b;
        }
        hdr.ps[0] = hdr.h;
        hdr.z = hdr.ps[2].a;
    }
}`, `
header in_t { <bit<4>, low> k; <bit<4>, high> v; }
struct inner_t { in_t h; <bit<4>, high> w; }
struct outer_t { inner_t x; inner_t y; in_t hs[2]; }
control C(inout outer_t o, inout in_t e) {
    apply {
        o.y = o.x;
        o.hs[0] = e;
        o.x.h = o.hs[1];
        e = o.y.h;
        if (o.y.w == 4w0) {
            o.hs[1].k = o.x.w;
        }
    }
}`, `
header a_t { <bit<8>, low> x; <bit<8>, high> y; }
struct s_t { a_t h; <bit<8>, low> l; }
control First(inout s_t s) {
    apply {
        s.h = s.h;
        if (s.h.y > 8w200) {
            s.l = s.h.x;
        }
    }
}
control Second(inout a_t a, inout s_t s) {
    apply {
        s.h = a;
        a.x = s.h.y;
    }
}`}

// planCase is one program and the settings the plan tests run it under.
type planCase struct {
	name    string
	prog    *ast.Program
	lat     lattice.Lattice
	cp      *controlplane.ControlPlane
	packets int
}

func planCases(t *testing.T) []planCase {
	t.Helper()
	var cs []planCase
	twoPoint := lattice.TwoPoint()
	for i, src := range adversarialPrograms {
		prog := parser.MustParse(fmt.Sprintf("adversarial-%d.p4", i), src)
		if _, err := eval.Compile(prog); err != nil {
			t.Fatalf("%s does not compile, so its runs would leave their inputs alone: %v", prog.File, err)
		}
		cs = append(cs,
			planCase{name: prog.File, prog: prog, lat: twoPoint},
			planCase{name: prog.File + "/2-packets", prog: prog, lat: twoPoint, packets: 2})
	}
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed} {
			prog := parser.MustParse(p.FileName(v), p.Source(v))
			cs = append(cs,
				planCase{name: prog.File, prog: prog, lat: p.Lattice()},
				planCase{name: prog.File + "/control-plane", prog: prog, lat: p.Lattice(), cp: caseStudyCP(t, p.Name)})
		}
	}
	rng := rand.New(rand.NewSource(61))
	cfg := gen.DefaultConfig()
	cfg.Lattice = "chain:4"
	chain, err := cfg.ResolveLattice()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		prog := parser.MustParse(fmt.Sprintf("gen-chain4-%d.p4", i), gen.Random(rng, cfg))
		cs = append(cs, planCase{name: prog.File, prog: prog, lat: chain})
	}
	return cs
}

// outcome is one run's result in comparable form, with the run-A inputs
// the FixInputs hook saw, trial by trial.
type outcome struct {
	Violations []string
	Ran        int
	Err        string
	Inputs     []string
}

// inputLog is a FixInputs hook that records each trial's drawn run-A
// inputs as text and then clears the validity of every header whose first
// field is even — an edit the next trial's draw must undo.
type inputLog struct {
	params []string
	seen   []string
}

func (l *inputLog) fix(in map[string]eval.Value) {
	for _, name := range l.params {
		l.seen = append(l.seen, name+"="+in[name].String())
		invalidateEven(in[name])
	}
}

func invalidateEven(v eval.Value) {
	switch x := v.(type) {
	case *eval.HeaderVal:
		if b, ok := x.Fields[0].Val.(eval.BitVal); ok && b.V%2 == 0 {
			x.Valid = false
		}
		for _, f := range x.Fields {
			invalidateEven(f.Val)
		}
	case *eval.RecordVal:
		for _, f := range x.Fields {
			invalidateEven(f.Val)
		}
	case *eval.StackVal:
		for _, e := range x.Elems {
			invalidateEven(e)
		}
	}
}

// capture runs f and packages its result with the inputs log collected
// meanwhile.
func capture(log *inputLog, f func() ([]ni.Violation, int, error)) outcome {
	if log != nil {
		log.seen = nil
	}
	vio, ran, err := f()
	o := outcome{Ran: ran, Err: fmt.Sprint(err)}
	for _, v := range vio {
		o.Violations = append(o.Violations, v.String())
	}
	if log != nil {
		o.Inputs = log.seen
	}
	return o
}

// referenceAdaptive is RunAdaptive's round schedule over ReferenceRunN.
func referenceAdaptive(e *ni.Experiment, lo, hi int, seed int64) ([]ni.Violation, int, error) {
	ran, round := 0, lo
	for ran < hi {
		round = min(round, hi-ran)
		out, executed, err := ni.ReferenceRunN(e, round, seed+int64(ran))
		ran += executed
		if len(out) > 0 || err != nil {
			return out, ran, err
		}
		round *= 2
	}
	return nil, ran, nil
}

// TestPlanReuseMatchesFresh drives one Experiment per program and hook
// setting through every control, every observer below top, adaptive
// rounds, a flat round and an exhaustive sweep, and checks each call
// against a fresh Experiment and the reference loop.
func TestPlanReuseMatchesFresh(t *testing.T) {
	checked := 0
	for _, c := range planCases(t) {
		for _, hooked := range []bool{false, true} {
			name := c.name
			if hooked {
				name += "/fix-inputs"
			}
			t.Run(name, func(t *testing.T) {
				mk := func(log *inputLog) *ni.Experiment {
					e := &ni.Experiment{Prog: c.prog, Lat: c.lat, CP: c.cp, Packets: c.packets}
					if log != nil {
						e.FixInputs = log.fix
					}
					return e
				}
				var sharedLog, freshLog *inputLog
				if hooked {
					sharedLog, freshLog = &inputLog{}, &inputLog{}
				}
				shared := mk(sharedLog)
				for _, ctrl := range c.prog.Controls {
					for _, l := range []*inputLog{sharedLog, freshLog} {
						if l != nil {
							l.params = l.params[:0]
							for _, p := range ctrl.Params {
								l.params = append(l.params, p.Name)
							}
						}
					}
					for oi, obs := range c.lat.Elements() {
						if obs == c.lat.Top() {
							continue
						}
						shared.Control, shared.Observer = ctrl.Name, obs
						fresh := func() *ni.Experiment {
							e := mk(freshLog)
							e.Control, e.Observer = ctrl.Name, obs
							return e
						}
						seed := int64(17 + 7*oi)
						same := func(what string, got, want, ref outcome) {
							t.Helper()
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s at %s: reused experiment %+v, fresh %+v", ctrl.Name, what, obs, got, want)
							}
							if !reflect.DeepEqual(got, ref) {
								t.Fatalf("%s %s at %s: reused experiment %+v, reference %+v", ctrl.Name, what, obs, got, ref)
							}
							checked++
						}
						same("adaptive 4..32",
							capture(sharedLog, func() ([]ni.Violation, int, error) { return shared.RunAdaptive(4, 32, seed) }),
							capture(freshLog, func() ([]ni.Violation, int, error) { return fresh().RunAdaptive(4, 32, seed) }),
							capture(freshLog, func() ([]ni.Violation, int, error) { return referenceAdaptive(fresh(), 4, 32, seed) }))
						same("flat 8",
							capture(sharedLog, func() ([]ni.Violation, int, error) { return shared.RunN(8, seed+1) }),
							capture(freshLog, func() ([]ni.Violation, int, error) { return fresh().RunN(8, seed+1) }),
							capture(freshLog, func() ([]ni.Violation, int, error) { return ni.ReferenceRunN(fresh(), 8, seed+1) }))
						orc := exhaust.Oracle{Budget: 1 << 12}
						got, gerr := orc.Check(shared, seed)
						want, werr := orc.Check(fresh(), seed)
						if g, w := fmt.Sprintf("%+v %v", got, gerr), fmt.Sprintf("%+v %v", want, werr); g != w {
							t.Fatalf("%s exhaustive at %s: reused experiment %s, fresh %s", ctrl.Name, obs, g, w)
						}
					}
				}
			})
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}
