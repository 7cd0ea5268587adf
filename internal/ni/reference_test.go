package ni

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/types"
)

// ReferenceRunN is the map-shaped trial loop RunN replaced, kept as the
// reference the engine parity tests compare both engines against. Every
// packet's inputs are drawn into a name-keyed map by the generic type walks
// (eval.RandomFrom for run A, randomizeAbove for run B) from a fresh
// math/rand generator, each run pushes its sequence through a fresh
// tree-walking interpreter, and outputs are compared by diffObs's by-name
// walk alone. It shares none of RunN's samplers, machines, generator or
// compiled observable trees.
func ReferenceRunN(e *Experiment, trials int, seed int64) ([]Violation, int, error) {
	rng := rand.New(rand.NewSource(seed))
	obs := e.Observer
	if obs.IsZero() {
		obs = e.Lat.Bottom()
	}
	ctrl := e.findControl()
	if ctrl == nil {
		return nil, 0, fmt.Errorf("ni: control %q not found", e.Control)
	}
	paramTypes, err := e.paramTypes(ctrl)
	if err != nil {
		return nil, 0, err
	}
	packets := e.Packets
	if packets < 1 {
		packets = 1
	}
	var out []Violation
	for t := 0; t < trials; t++ {
		seqA := make([]map[string]eval.Value, packets)
		seqB := make([]map[string]eval.Value, packets)
		for k := 0; k < packets; k++ {
			inA := map[string]eval.Value{}
			inB := map[string]eval.Value{}
			for _, p := range ctrl.Params {
				inA[p.Name] = eval.RandomFrom(paramTypes[p.Name].T, rng)
			}
			if e.FixInputs != nil {
				e.FixInputs(inA)
			}
			for _, p := range ctrl.Params {
				pt := paramTypes[p.Name]
				inB[p.Name] = randomizeAbove(eval.Copy(inA[p.Name]), pt, obs, e.Lat, rng)
			}
			seqA[k] = inA
			seqB[k] = inB
		}
		cp := e.CP
		if cp == nil {
			cp = controlplane.New()
		}
		outA, sigA, err := runSequence(e.Prog, ctrl.Name, cp.Clone(), seqA)
		if err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run A: %v", t, err)
		}
		outB, sigB, err := runSequence(e.Prog, ctrl.Name, cp.Clone(), seqB)
		if err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run B: %v", t, err)
		}
		violated := false
		for k := 0; k < packets && !violated; k++ {
			if sigA[k].Kind != sigB[k].Kind {
				out = append(out, Violation{Trial: t,
					Where: fmt.Sprintf("packet %d signal", k),
					A:     sigA[k].String(), B: sigB[k].String()})
				violated = true
				break
			}
			for _, p := range ctrl.Params {
				pt := paramTypes[p.Name]
				where := p.Name
				if packets > 1 {
					where = fmt.Sprintf("packet %d: %s", k, p.Name)
				}
				if v, ok := diffObservable(where, outA[k][p.Name], outB[k][p.Name], pt, obs, e.Lat); !ok {
					v.Trial = t
					out = append(out, v)
					violated = true
					break
				}
			}
		}
	}
	return out, trials, nil
}

// runSequence pushes a packet sequence through one interpreter so that
// register state persists, returning per-packet outputs and signals.
func runSequence(prog *ast.Program, control string, cp *controlplane.ControlPlane, seq []map[string]eval.Value) ([]map[string]eval.Value, []eval.Signal, error) {
	in, err := eval.New(prog, cp)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]map[string]eval.Value, len(seq))
	sigs := make([]eval.Signal, len(seq))
	for k, inputs := range seq {
		out, sig, err := in.RunControl(control, inputs)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %v", k, err)
		}
		outs[k] = out
		sigs[k] = sig
	}
	return outs, sigs, nil
}

// randomizeAbove returns v with every scalar leaf whose label does NOT
// flow to obs replaced by a fresh random value; observable leaves are
// preserved, so the result is below-obs-equivalent to v.
func randomizeAbove(v eval.Value, t types.SecType, obs lattice.Label, lat lattice.Lattice, rng eval.Rng) eval.Value {
	if types.IsScalar(t.T) {
		if lat.Leq(t.L, obs) {
			return v
		}
		return eval.RandomFrom(t.T, rng)
	}
	switch tt := t.T.(type) {
	case *types.Record:
		rv, ok := v.(*eval.RecordVal)
		if !ok {
			return v
		}
		fs := make([]eval.NamedValue, len(rv.Fields))
		copy(fs, rv.Fields)
		for i := range fs {
			if f, ok := types.FieldOf(tt, fs[i].Name); ok {
				fs[i].Val = randomizeAbove(fs[i].Val, f.Type, obs, lat, rng)
			}
		}
		return &eval.RecordVal{Fields: fs}
	case *types.Header:
		hv, ok := v.(*eval.HeaderVal)
		if !ok {
			return v
		}
		fs := make([]eval.NamedValue, len(hv.Fields))
		copy(fs, hv.Fields)
		for i := range fs {
			if f, ok := types.FieldOf(tt, fs[i].Name); ok {
				fs[i].Val = randomizeAbove(fs[i].Val, f.Type, obs, lat, rng)
			}
		}
		return &eval.HeaderVal{Valid: hv.Valid, Fields: fs}
	case *types.Stack:
		sv, ok := v.(*eval.StackVal)
		if !ok {
			return v
		}
		es := make([]eval.Value, len(sv.Elems))
		for i, el := range sv.Elems {
			es[i] = randomizeAbove(el, tt.Elem, obs, lat, rng)
		}
		return &eval.StackVal{Elems: es}
	default:
		return v
	}
}

// diffObservable compares the observable (χ ⊑ obs) scalar leaves of a and
// b by name; on a mismatch it returns the witness, its Where prefixed with
// path, and false.
func diffObservable(path string, a, b eval.Value, t types.SecType, obs lattice.Label, lat lattice.Lattice) (Violation, bool) {
	v, ok := diffObs(a, b, t, obs, lat)
	if ok {
		return Violation{}, true
	}
	v.Where = path + v.Where
	return v, false
}
