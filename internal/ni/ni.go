// Package ni empirically validates the paper's soundness theorem
// (Theorem 4.3: well-typed programs satisfy non-interference) by running
// programs twice on below-observer-equivalent inputs and comparing the
// observable parts of the outputs.
//
// A trial draws a random input state for the control's parameters, builds a
// second state that agrees on every field whose label flows to the observer
// (χ ⊑ l) but is freshly random elsewhere, runs the program on both states
// against the same control plane (Definition C.8 fixes the entries across
// the two runs), and then checks:
//
//   - both runs produce the same signal form (cont/exit/return), and
//   - every observable field of every inout parameter is equal.
//
// For well-typed programs no trial may fail; for the paper's buggy
// programs the harness finds witnesses of interference, which is how the
// tests demonstrate that the rejected programs are genuinely insecure
// rather than false positives.
package ni

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/diag"
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/resolve"
	"repro/internal/types"
)

// Experiment configures a non-interference experiment.
type Experiment struct {
	// Prog is the (parsed) program under test.
	Prog *ast.Program
	// Lat is the security lattice the program is annotated against.
	Lat lattice.Lattice
	// Control names the control block to run ("" = first).
	Control string
	// Observer is the label l of the adversary: fields with χ ⊑ l are
	// observable. Zero means the lattice bottom.
	Observer lattice.Label
	// CP holds the control-plane entries, shared by both runs. Nil means
	// an empty control plane (every table application misses).
	CP *controlplane.ControlPlane
	// FixInputs, if non-nil, adjusts the randomly drawn inputs of each
	// trial's first run before the second run's inputs are derived — e.g.
	// to steer execution into the interesting branch of a case study
	// (observable fields stay equal across the two runs; unobservable
	// fields are still freshly randomized for the second run). It may
	// replace leaf values and edit containers in place, but every record
	// and header must keep exactly its declared fields in declared order:
	// the compiled engine reads fields by position and refuses a
	// reordered input with an error naming the parameter.
	FixInputs func(map[string]eval.Value)
	// Packets is the number of packets per trial (default 1). With
	// Packets > 1 each run pushes the whole sequence through ONE
	// interpreter, so register state persists across packets — the
	// multi-packet adversary of the paper's Section 7. The two sequences
	// agree on every observable input of every packet; outputs are
	// compared packet by packet.
	Packets int
	// Code is the compiled form of Prog. When nil (and Interp is unset)
	// the experiment compiles Prog lazily on first RunN and keeps the
	// result, so all trials, observer levels, and packets of this
	// Experiment share one compilation. Callers running many experiments
	// over the same program (the pipeline's observer sweep) should
	// eval.Compile once and set Code on each.
	Code *eval.Compiled
	// Interp forces the tree-walking interpreter, disabling compilation.
	// The two engines are observationally identical (same outputs,
	// signals, error strings, and rng stream); this exists for
	// differential testing and benchmarking.
	Interp bool
	// Metrics, when non-nil, receives ni_trials_total (trials executed),
	// ni_witnesses_total (violations found), and
	// ni_escalation_rounds_total (adaptive rounds beyond the first).
	Metrics *metrics.Registry

	triedCompile bool
	machA, machB *eval.Machine
	machCode     *eval.Compiled
	rng          *eval.BatchRand
}

// engine returns the compiled program to run trials on, compiling lazily
// on first use. Nil means the tree-walking interpreter: Interp is set, or
// compilation failed (in which case the interpreter reproduces the
// program's load-time error, keeping diagnostics identical).
func (e *Experiment) engine() *eval.Compiled {
	if e.Interp {
		return nil
	}
	if e.Code == nil && !e.triedCompile {
		e.triedCompile = true
		if code, err := eval.Compile(e.Prog); err == nil {
			e.Code = code
		}
	}
	return e.Code
}

// machines returns the experiment's two reusable machines (run A and
// run B), rebound to a fresh clone of the experiment's control plane.
// Both runs of a trial must see the same entries (Definition C.8), so one
// clone is shared: machine runs only read the control plane.
func (e *Experiment) machines(code *eval.Compiled) (*eval.Machine, *eval.Machine) {
	if e.machCode != code {
		e.machA = eval.NewMachine(code, nil)
		e.machB = eval.NewMachine(code, nil)
		e.machCode = code
	}
	cp := e.CP
	if cp == nil {
		cp = controlplane.New()
	}
	cl := cp.Clone()
	e.machA.SetControlPlane(cl)
	e.machB.SetControlPlane(cl)
	return e.machA, e.machB
}

// Violation is a witness of interference found by a trial.
type Violation struct {
	Trial int
	// Where describes the differing observable output (parameter and
	// field path), or "signal" for differing signal forms.
	Where string
	A, B  string // the differing values (or signals), rendered
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("trial %d: observable output %s differs: %s vs %s", v.Trial, v.Where, v.A, v.B)
}

// Run performs trials randomized from seed and returns all violations
// found (empty for a non-interfering program) plus any runtime error.
func (e *Experiment) Run(trials int, seed int64) ([]Violation, error) {
	out, _, err := e.RunN(trials, seed)
	return out, err
}

// RunN is Run, additionally reporting how many trials actually started —
// fewer than requested when a runtime error aborts the loop, which keeps
// trial-budget accounting exact.
func (e *Experiment) RunN(trials int, seed int64) ([]Violation, int, error) {
	out, ran, err := e.runN(trials, seed)
	if e.Metrics != nil {
		e.Metrics.Counter("ni_trials_total").Add(int64(ran))
		e.Metrics.Counter("ni_witnesses_total").Add(int64(len(out)))
	}
	return out, ran, err
}

func (e *Experiment) runN(trials int, seed int64) ([]Violation, int, error) {
	// The experiment's BatchRand, reseeded for this round, produces the
	// bit-identical stream to rand.New(rand.NewSource(seed)), so the three
	// engine paths below (and any recorded corpus seed) draw exactly the
	// same trials, and the round allocates no generator.
	rng := e.Rand(seed)
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
	if code := e.engine(); code != nil {
		if e.FixInputs == nil && uniqueParamNames(ctrl) {
			return e.runCompiledFast(code, ctrl, paramTypes, obs, packets, trials, rng)
		}
		return e.runCompiledMap(code, ctrl, paramTypes, obs, packets, trials, rng)
	}
	var out []Violation
	for t := 0; t < trials; t++ {
		// Draw the packet sequences: every packet's inputs for run A,
		// with run B's derived to agree on all observable fields.
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

// RunAdaptive performs trials in escalating rounds — min trials first,
// then doubling round sizes until max total trials have run — and stops at
// the first round that yields a witness (or a runtime error). It returns
// the violations found, the number of trials actually executed, and any
// runtime error.
//
// The point is budget shaping for fuzz campaigns: a program likely to
// interfere (e.g. one the IFC checker rejected) usually witnesses within
// the first rounds and costs barely more than min, while a genuinely
// non-interfering program pays max once and earns a much stronger
// "no witness found" claim than a flat small budget would. Round r draws
// its randomness from seed + trialsSoFar, so the trial sequence is
// deterministic in (min, max, seed) and disjoint rounds never repeat a
// trial's random stream.
func (e *Experiment) RunAdaptive(min, max int, seed int64) ([]Violation, int, error) {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	ran := 0
	round := min
	rounds := 0
	for ran < max {
		if round > max-ran {
			round = max - ran
		}
		rounds++
		if rounds > 1 && e.Metrics != nil {
			e.Metrics.Counter("ni_escalation_rounds_total").Inc()
		}
		out, executed, err := e.RunN(round, seed+int64(ran))
		ran += executed
		if len(out) > 0 || err != nil {
			return out, ran, err
		}
		round *= 2
	}
	return nil, ran, nil
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

// uniqueParamNames reports whether every control parameter name is
// distinct. The slice-indexed fast path identifies parameters by position;
// duplicate names have map semantics (the last declaration wins for both
// inputs and outputs), which only the map paths reproduce.
func uniqueParamNames(ctrl *ast.ControlDecl) bool {
	for i := range ctrl.Params {
		for j := i + 1; j < len(ctrl.Params); j++ {
			if ctrl.Params[i].Name == ctrl.Params[j].Name {
				return false
			}
		}
	}
	return true
}

// runCompiledFast is the NI hot path: compiled execution with
// slice-indexed parameters — no per-trial interpreter construction, no
// map-keyed input/output marshalling, and no defensive value copies
// (values are immutable trees and machines never mutate them). The rng
// draw order, violation reporting, and error wrapping are identical to the
// tree-walking path.
func (e *Experiment) runCompiledFast(code *eval.Compiled, ctrl *ast.ControlDecl, paramTypes map[string]types.SecType, obs lattice.Label, packets, trials int, rng eval.Rng) ([]Violation, int, error) {
	idx := code.ControlIndex(e.Control)
	machA, machB := e.machines(code)
	n := len(ctrl.Params)
	pts := make([]types.SecType, n)
	samplers := make([]sampler, n)
	diffs := make([]Comparator, n)
	for i, p := range ctrl.Params {
		pts[i] = paramTypes[p.Name]
		samplers[i] = compileSampler(pts[i], obs, e.Lat)
		diffs[i] = ObservableDiff(pts[i], obs, e.Lat)
	}
	// Trial input sequences, reused across trials (values are overwritten
	// wholesale each trial).
	seqA := make([][]eval.Value, packets)
	seqB := make([][]eval.Value, packets)
	for k := range seqA {
		seqA[k] = make([]eval.Value, n)
		seqB[k] = make([]eval.Value, n)
	}
	outsA := make([][]eval.Value, packets)
	outsB := make([][]eval.Value, packets)
	sigsA := make([]eval.Signal, packets)
	sigsB := make([]eval.Signal, packets)
	var out []Violation
	for t := 0; t < trials; t++ {
		for k := 0; k < packets; k++ {
			inA, inB := seqA[k], seqB[k]
			for i := range samplers {
				inA[i] = samplers[i].draw(rng)
			}
			for i := range samplers {
				inB[i] = samplers[i].vary(inA[i], rng)
			}
		}
		if err := runMachineSeq(machA, idx, seqA, outsA, sigsA); err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run A: %v", t, err)
		}
		if err := runMachineSeq(machB, idx, seqB, outsB, sigsB); err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run B: %v", t, err)
		}
		violated := false
		for k := 0; k < packets && !violated; k++ {
			if sigsA[k].Kind != sigsB[k].Kind {
				out = append(out, Violation{Trial: t,
					Where: fmt.Sprintf("packet %d signal", k),
					A:     sigsA[k].String(), B: sigsB[k].String()})
				violated = true
				break
			}
			for i, p := range ctrl.Params {
				if v, ok := diffs[i].Diff(outsA[k][i], outsB[k][i]); !ok {
					if packets > 1 {
						v.Where = fmt.Sprintf("packet %d: %s%s", k, p.Name, v.Where)
					} else {
						v.Where = p.Name + v.Where
					}
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

// runMachineSeq pushes one packet sequence through a reset machine,
// filling outs and sigs. For single-packet sequences the outputs alias the
// machine's control frame (valid until its next run — one trial); longer
// sequences copy the output window per packet, since the frame is
// overwritten by the next packet.
func runMachineSeq(m *eval.Machine, idx int, seq, outs [][]eval.Value, sigs []eval.Signal) error {
	m.Reset()
	for k, inputs := range seq {
		o, sig, err := m.RunIndexed(idx, inputs)
		if err != nil {
			return fmt.Errorf("packet %d: %v", k, err)
		}
		if len(seq) > 1 {
			cp := make([]eval.Value, len(o))
			copy(cp, o)
			o = cp
		}
		outs[k] = o
		sigs[k] = sig
	}
	return nil
}

// runCompiledMap is the compiled engine behind the map-keyed trial shape —
// used when FixInputs needs a map to edit or when duplicate parameter
// names demand map semantics. Per-trial work matches the interpreter path
// minus the interpreter itself.
func (e *Experiment) runCompiledMap(code *eval.Compiled, ctrl *ast.ControlDecl, paramTypes map[string]types.SecType, obs lattice.Label, packets, trials int, rng eval.Rng) ([]Violation, int, error) {
	machA, machB := e.machines(code)
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
		outA, sigA, err := runMachineMapSeq(machA, ctrl.Name, seqA)
		if err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run A: %v", t, err)
		}
		outB, sigB, err := runMachineMapSeq(machB, ctrl.Name, seqB)
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

// runMachineMapSeq is runSequence on a reset machine.
func runMachineMapSeq(m *eval.Machine, control string, seq []map[string]eval.Value) ([]map[string]eval.Value, []eval.Signal, error) {
	m.Reset()
	outs := make([]map[string]eval.Value, len(seq))
	sigs := make([]eval.Signal, len(seq))
	for k, inputs := range seq {
		out, sig, err := m.RunControl(control, inputs)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %v", k, err)
		}
		outs[k] = out
		sigs[k] = sig
	}
	return outs, sigs, nil
}

func (e *Experiment) findControl() *ast.ControlDecl {
	for _, c := range e.Prog.Controls {
		if c.Name == e.Control || e.Control == "" {
			return c
		}
	}
	return nil
}

// paramTypes resolves the control's parameter types against the real
// lattice so labels are faithful.
func (e *Experiment) paramTypes(ctrl *ast.ControlDecl) (map[string]types.SecType, error) {
	var diags diag.List
	res := resolve.New(e.Lat, &diags)
	res.CollectTypeDecls(e.Prog)
	out := map[string]types.SecType{}
	for _, p := range ctrl.Params {
		out[p.Name] = res.SecType(p.Type)
	}
	if err := diags.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// sampler is a per-parameter trial plan with the type walk, field lookups,
// and lattice queries of RandomFrom / randomizeAbove resolved at
// experiment setup: draw builds a fresh random input (same rng consumption
// as eval.RandomFrom) and vary is randomizeAbove (same draws). Outputs are
// compared by a Comparator, which the exhaustive oracle shares. Only the
// indexed fast path uses samplers — its inputs are always built from the
// type itself, in the type's field order, which is also what the compiled
// machine's positional field accesses require. The map path keeps the
// generic walks: FixInputs may edit the values it is handed (but not
// reorder their fields; Machine.RunControl checks), and the walks tolerate
// whatever kinds it leaves.
type sampler struct {
	draw func(rng eval.Rng) eval.Value
	vary func(v eval.Value, rng eval.Rng) eval.Value
}

func compileSampler(t types.SecType, obs lattice.Label, lat lattice.Lattice) sampler {
	if types.IsScalar(t.T) {
		tt := t.T
		s := sampler{draw: func(rng eval.Rng) eval.Value { return eval.RandomFrom(tt, rng) }}
		if lat.Leq(t.L, obs) {
			s.vary = func(v eval.Value, _ eval.Rng) eval.Value { return v }
		} else {
			s.vary = func(_ eval.Value, rng eval.Rng) eval.Value { return eval.RandomFrom(tt, rng) }
		}
		return s
	}
	switch tt := t.T.(type) {
	case *types.Record:
		names, subs := fieldSamplers(tt.Fields, obs, lat)
		return sampler{
			draw: func(rng eval.Rng) eval.Value {
				fs := make([]eval.NamedValue, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].draw(rng)}
				}
				return &eval.RecordVal{Fields: fs}
			},
			vary: func(v eval.Value, rng eval.Rng) eval.Value {
				rv, ok := v.(*eval.RecordVal)
				if !ok || len(rv.Fields) != len(subs) {
					return randomizeAbove(v, t, obs, lat, rng)
				}
				fs := make([]eval.NamedValue, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].vary(rv.Fields[i].Val, rng)}
				}
				return &eval.RecordVal{Fields: fs}
			},
		}
	case *types.Header:
		names, subs := fieldSamplers(tt.Fields, obs, lat)
		return sampler{
			draw: func(rng eval.Rng) eval.Value {
				fs := make([]eval.NamedValue, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].draw(rng)}
				}
				return &eval.HeaderVal{Valid: true, Fields: fs}
			},
			vary: func(v eval.Value, rng eval.Rng) eval.Value {
				hv, ok := v.(*eval.HeaderVal)
				if !ok || len(hv.Fields) != len(subs) {
					return randomizeAbove(v, t, obs, lat, rng)
				}
				fs := make([]eval.NamedValue, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].vary(hv.Fields[i].Val, rng)}
				}
				return &eval.HeaderVal{Valid: hv.Valid, Fields: fs}
			},
		}
	case *types.Stack:
		el := compileSampler(tt.Elem, obs, lat)
		size := tt.Size
		return sampler{
			draw: func(rng eval.Rng) eval.Value {
				es := make([]eval.Value, size)
				for i := range es {
					es[i] = el.draw(rng)
				}
				return &eval.StackVal{Elems: es}
			},
			vary: func(v eval.Value, rng eval.Rng) eval.Value {
				sv, ok := v.(*eval.StackVal)
				if !ok {
					return randomizeAbove(v, t, obs, lat, rng)
				}
				es := make([]eval.Value, len(sv.Elems))
				for i := range es {
					es[i] = el.vary(sv.Elems[i], rng)
				}
				return &eval.StackVal{Elems: es}
			},
		}
	default:
		return sampler{
			draw: func(rng eval.Rng) eval.Value { return eval.RandomFrom(t.T, rng) },
			vary: func(v eval.Value, _ eval.Rng) eval.Value { return v },
		}
	}
}

// fieldSamplers compiles one sampler per declared field, resolving
// FieldOf once. Fields randomizeAbove would skip (absent from the type)
// cannot occur here: fast-path values are built by draw from the type
// itself.
func fieldSamplers(fields []types.Field, obs lattice.Label, lat lattice.Lattice) ([]string, []sampler) {
	names := make([]string, len(fields))
	subs := make([]sampler, len(fields))
	for i, f := range fields {
		names[i] = f.Name
		subs[i] = compileSampler(f.Type, obs, lat)
	}
	return names, subs
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

// Comparator is the observable-output comparison for values of one
// parameter type at one observer; ObservableDiff builds it.
type Comparator struct {
	root       obsNode
	observable bool // whether any leaf of the type is observable
	t          types.SecType
	obs        lattice.Label
	lat        lattice.Lattice
}

// obsNode is one node of a type's observable tree: the type pruned to the
// paths that reach an observable (χ ⊑ obs) scalar leaf. A record or header
// node's kids are its fields that contain one, each carrying its position
// in pos; a stack node's only kid is its element's node; a leaf has no
// kids.
type obsNode struct {
	kind   obsKind
	pos    int // position among the parent record's or header's fields
	nfield int // record/header: the declared field count
	kids   []obsNode
}

type obsKind uint8

const (
	obsLeaf obsKind = iota
	obsRecord
	obsHeader
	obsStack
)

// ObservableDiff compiles the observable-output comparison for values of
// type t at observer obs. The type walk and lattice queries happen here,
// once, so oracles that compare outputs per trial or per assignment pay
// none of them per comparison.
func ObservableDiff(t types.SecType, obs lattice.Label, lat lattice.Lattice) Comparator {
	root, observable := compileObs(t, obs, lat)
	return Comparator{root: root, observable: observable, t: t, obs: obs, lat: lat}
}

// compileObs builds t's observable tree; false means t has no observable
// leaf, so diffObs accepts any two values of it.
func compileObs(t types.SecType, obs lattice.Label, lat lattice.Lattice) (obsNode, bool) {
	if types.IsScalar(t.T) {
		return obsNode{kind: obsLeaf}, lat.Leq(t.L, obs)
	}
	if st, ok := t.T.(*types.Stack); ok {
		el, ok := compileObs(st.Elem, obs, lat)
		return obsNode{kind: obsStack, kids: []obsNode{el}}, ok
	}
	fields := types.Fields(t.T)
	n := obsNode{kind: obsRecord, nfield: len(fields)}
	if _, ok := t.T.(*types.Header); ok {
		n.kind = obsHeader
	}
	for i, f := range fields {
		if k, ok := compileObs(f.Type, obs, lat); ok {
			if n.kids == nil {
				n.kids = make([]obsNode, 0, len(fields)-i)
			}
			k.pos = i
			n.kids = append(n.kids, k)
		}
	}
	return n, n.kids != nil
}

// Diff compares the observable leaves of two values shaped like the
// comparator's type; on a mismatch it returns the witness and false. The
// witness's Where is the path below the value (".f[2].g", empty at a
// scalar), for the caller to prefix with the parameter name. The match
// path walks the observable tree positionally and allocates nothing; a
// mismatch, or a shape that walk cannot read, goes to diffObs, which
// builds the witness.
func (c *Comparator) Diff(a, b eval.Value) (Violation, bool) {
	if !c.observable || c.root.equal(a, b) {
		return Violation{}, true
	}
	return diffObs(a, b, c.t, c.obs, c.lat)
}

// equal reports whether a and b agree on every leaf under n. It returns
// false for a record or header with other than its declared field count,
// which only diffObs's by-name walk reads; every other shape diffObs
// accepts unread (a value of the wrong kind, stacks of unequal length),
// equal accepts too.
func (n *obsNode) equal(a, b eval.Value) bool {
	var fa, fb []eval.NamedValue
	switch n.kind {
	case obsLeaf:
		if x, ok := a.(eval.BitVal); ok {
			if y, ok := b.(eval.BitVal); ok {
				return x == y
			}
		}
		return eval.ValueEqual(a, b)
	case obsStack:
		sa, ok1 := a.(*eval.StackVal)
		sb, ok2 := b.(*eval.StackVal)
		if !ok1 || !ok2 || len(sa.Elems) != len(sb.Elems) {
			return true
		}
		for i := range sa.Elems {
			if !n.kids[0].equal(sa.Elems[i], sb.Elems[i]) {
				return false
			}
		}
		return true
	case obsHeader:
		ha, ok1 := a.(*eval.HeaderVal)
		hb, ok2 := b.(*eval.HeaderVal)
		if !ok1 || !ok2 {
			return true
		}
		fa, fb = ha.Fields, hb.Fields
	default:
		ra, ok1 := a.(*eval.RecordVal)
		rb, ok2 := b.(*eval.RecordVal)
		if !ok1 || !ok2 {
			return true
		}
		fa, fb = ra.Fields, rb.Fields
	}
	if len(fa) != n.nfield || len(fb) != n.nfield {
		return false
	}
	for i := range n.kids {
		k := &n.kids[i]
		if !k.equal(fa[k.pos].Val, fb[k.pos].Val) {
			return false
		}
	}
	return true
}

// diffObservable compares the observable (χ ⊑ obs) scalar leaves of a and
// b; on a mismatch it returns the witness and false. Witness paths are
// built only along the failing spine — the match case (virtually every
// trial of every campaign) allocates nothing.
func diffObservable(path string, a, b eval.Value, t types.SecType, obs lattice.Label, lat lattice.Lattice) (Violation, bool) {
	v, ok := diffObs(a, b, t, obs, lat)
	if ok {
		return Violation{}, true
	}
	v.Where = path + v.Where
	return v, false
}

// diffObs is diffObservable with the witness path kept relative: the
// returned Violation's Where is the suffix below the comparison root
// (empty at a scalar leaf), prefixed one step at a time as the failure
// unwinds.
func diffObs(a, b eval.Value, t types.SecType, obs lattice.Label, lat lattice.Lattice) (Violation, bool) {
	if types.IsScalar(t.T) {
		if !lat.Leq(t.L, obs) {
			return Violation{}, true
		}
		if !eval.ValueEqual(a, b) {
			return Violation{A: a.String(), B: b.String()}, false
		}
		return Violation{}, true
	}
	switch tt := t.T.(type) {
	case *types.Record:
		ra, ok1 := a.(*eval.RecordVal)
		rb, ok2 := b.(*eval.RecordVal)
		if !ok1 || !ok2 {
			return Violation{}, true
		}
		for i := range ra.Fields {
			f, ok := types.FieldOf(tt, ra.Fields[i].Name)
			if !ok || i >= len(rb.Fields) {
				continue
			}
			if v, ok := diffObs(ra.Fields[i].Val, rb.Fields[i].Val, f.Type, obs, lat); !ok {
				v.Where = "." + ra.Fields[i].Name + v.Where
				return v, false
			}
		}
		return Violation{}, true
	case *types.Header:
		ha, ok1 := a.(*eval.HeaderVal)
		hb, ok2 := b.(*eval.HeaderVal)
		if !ok1 || !ok2 {
			return Violation{}, true
		}
		for i := range ha.Fields {
			f, ok := types.FieldOf(tt, ha.Fields[i].Name)
			if !ok || i >= len(hb.Fields) {
				continue
			}
			if v, ok := diffObs(ha.Fields[i].Val, hb.Fields[i].Val, f.Type, obs, lat); !ok {
				v.Where = "." + ha.Fields[i].Name + v.Where
				return v, false
			}
		}
		return Violation{}, true
	case *types.Stack:
		sa, ok1 := a.(*eval.StackVal)
		sb, ok2 := b.(*eval.StackVal)
		if !ok1 || !ok2 || len(sa.Elems) != len(sb.Elems) {
			return Violation{}, true
		}
		for i := range sa.Elems {
			if v, ok := diffObs(sa.Elems[i], sb.Elems[i], tt.Elem, obs, lat); !ok {
				v.Where = fmt.Sprintf("[%d]%s", i, v.Where)
				return v, false
			}
		}
		return Violation{}, true
	default:
		return Violation{}, true
	}
}
