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
//
// An Experiment builds its trial plan — the control, the parameters'
// security types, one input sampler and one output comparator per
// parameter — on the first RunN, ControlParams or Comparators call, and
// every later round, observer check and exhaustive sweep reuses it. The
// plan captures Prog, Lat, Control and Observer; it is rebuilt whenever
// one of them differs from what it was built from (pointer or value
// compare), so a caller may edit those fields between runs. The other
// fields are read afresh by every run.
type Experiment struct {
	// Prog is the (parsed) program under test. Captured by the plan.
	Prog *ast.Program
	// Lat is the security lattice the program is annotated against.
	// Captured by the plan.
	Lat lattice.Lattice
	// Control names the control block to run ("" = first). Captured by
	// the plan.
	Control string
	// Observer is the label l of the adversary: fields with χ ⊑ l are
	// observable. Zero means the lattice bottom. Captured by the plan.
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
	// the compiled engine reads fields by position, so a trial refuses a
	// reordered input, on either engine, with an error naming the
	// parameter. The values it is handed belong to the trial loop, which
	// refills them for the next trial, so it must not keep them past its
	// return; what it leaves is copied before any run.
	FixInputs func(map[string]eval.Value)
	// Packets is the number of packets per trial (default 1). With
	// Packets > 1 each run pushes the whole sequence through ONE machine
	// (or interpreter), so register state persists across packets — the
	// multi-packet adversary of the paper's Section 7. The two sequences
	// agree on every observable input of every packet; outputs are
	// compared packet by packet.
	Packets int
	// Code is the compiled form of Prog. When nil (and Interp is unset)
	// the experiment compiles Prog lazily on first RunN and keeps the
	// result, so all trials, observer levels, and packets of this
	// Experiment share one compilation. Callers running many experiments
	// over the same program (the pipeline's observer sweep) should
	// eval.Compile once and set Code on each. If Prog does not compile,
	// the runs go to the tree-walking interpreter, which reports the
	// program's load-time error.
	Code *eval.Compiled
	// Interp runs every trial's two runs on the tree-walking interpreter
	// instead of compiled machines. Only the runs change: the draws,
	// FixInputs and the output comparison are the same trial loop, and
	// the two engines are observationally identical (same outputs,
	// signals and error strings), so results are too. It exists for
	// differential testing and benchmarking.
	Interp bool
	// Metrics, when non-nil, receives ni_trials_total (trials executed),
	// ni_witnesses_total (violations found), and
	// ni_escalation_rounds_total (adaptive rounds beyond the first).
	Metrics *metrics.Registry

	triedCompile bool
	machA, machB *eval.Machine
	machCode     *eval.Compiled
	machCloned   bool // the machines run on a clone of CP
	rng          *eval.BatchRand
	plan         *trialPlan
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
// run B). Both runs of a trial must see the same entries (Definition
// C.8), so the pair shares one control plane: machine runs only read it.
// With a nil CP that is one empty control plane, its tables declared when
// the pair is built (or when CP was last cleared), which nothing can
// change. A non-nil CP is cloned afresh every round, since callers may
// edit it between runs.
func (e *Experiment) machines(code *eval.Compiled) (*eval.Machine, *eval.Machine) {
	if e.machCode != code || (e.CP == nil && e.machCloned) {
		empty := controlplane.New()
		e.machA = eval.NewMachine(code, empty)
		e.machB = eval.NewMachine(code, empty)
		e.machCode, e.machCloned = code, false
	}
	if e.CP != nil {
		cl := e.CP.Clone()
		e.machA.SetControlPlane(cl)
		e.machB.SetControlPlane(cl)
		e.machCloned = true
	}
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
	// bit-identical stream to rand.New(rand.NewSource(seed)), so both
	// engines (and any recorded corpus seed) draw exactly the same trials,
	// and the round allocates no generator.
	rng := e.Rand(seed)
	p, err := e.trialPlan()
	if err != nil {
		return nil, 0, err
	}
	ctrl := p.ctrl
	samplers := p.inputs()
	packets := max(e.Packets, 1)
	a, b := p.runs(packets)
	// Each run goes to a reusable compiled machine or, without a compiled
	// program, to a fresh tree-walking interpreter (machA and machB nil).
	var machA, machB *eval.Machine
	idx := -1
	if code := e.engine(); code != nil {
		idx = code.ControlIndex(e.Control)
		machA, machB = e.machines(code)
	}
	run := func(m *eval.Machine, r *trialRun) error {
		if m == nil {
			return runInterpSeq(e.Prog, ctrl, e.CP, r.seq, r.outs, r.sigs)
		}
		return runMachineSeq(m, idx, r.seq, r.outs, r.sigs)
	}
	var out []Violation
	for t := 0; t < trials; t++ {
		// Draw the packet sequences into the previous trial's input trees:
		// every packet's inputs for run A, with run B's derived to agree on
		// all observable fields. Run B is derived before either run, which
		// may edit run A's values in place. Refilling is safe because no
		// run keeps a container once it returns (Machine.RunIndexed; the
		// interpreter copies its inputs) and the previous trial's outputs
		// were compared before this draw.
		for k := 0; k < packets; k++ {
			inA, inB := a.seq[k], b.seq[k]
			for i, s := range samplers {
				inA[i] = s.draw(inA[i], rng)
			}
			if e.FixInputs != nil {
				if err := e.fixInputs(ctrl, p.pts, inA); err != nil {
					return out, t + 1, fmt.Errorf("ni: trial %d run A: packet %d: %v", t, k, err)
				}
			}
			for i, s := range samplers {
				inB[i] = s.vary(inB[i], inA[i], rng)
			}
		}
		if err := run(machA, a); err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run A: %v", t, err)
		}
		if err := run(machB, b); err != nil {
			return out, t + 1, fmt.Errorf("ni: trial %d run B: %v", t, err)
		}
		violated := false
		for k := 0; k < packets && !violated; k++ {
			if a.sigs[k].Kind != b.sigs[k].Kind {
				out = append(out, Violation{Trial: t,
					Where: fmt.Sprintf("packet %d signal", k),
					A:     a.sigs[k].String(), B: b.sigs[k].String()})
				violated = true
				break
			}
			for i, prm := range ctrl.Params {
				if v, ok := p.diffs[i].Diff(a.outs[k][i], b.outs[k][i]); !ok {
					if packets > 1 {
						v.Where = fmt.Sprintf("packet %d: %s%s", k, prm.Name, v.Where)
					} else {
						v.Where = prm.Name + v.Where
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

// fixInputs hands run A's drawn inputs to FixInputs by name and takes back
// what it leaves. The compiled engine reads record and header fields by
// position, so every returned value must keep its declared field order; it
// is then copied, so no value the hook keeps or shares reaches a run,
// which edits its inputs in place. A parameter the hook deletes runs on its
// zero value.
func (e *Experiment) fixInputs(ctrl *ast.ControlDecl, pts []types.SecType, in []eval.Value) error {
	named := make(map[string]eval.Value, len(in))
	for i, p := range ctrl.Params {
		named[p.Name] = in[i]
	}
	e.FixInputs(named)
	for i, p := range ctrl.Params {
		v, ok := named[p.Name]
		if !ok {
			v = eval.Zero(pts[i].T)
		}
		if msg := eval.FieldOrderMismatch(v, pts[i].T); msg != "" {
			return fmt.Errorf("eval: input %s%s; record and header inputs must keep their declared field order", p.Name, msg)
		}
		in[i] = eval.Copy(v)
	}
	return nil
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

// runInterpSeq is runMachineSeq on a fresh interpreter over its own clone
// of cp (nil = an empty control plane), so that register state persists
// across the sequence's packets and nothing carries over between runs.
// The interpreter takes and returns parameters by name, and copies both
// ways.
func runInterpSeq(prog *ast.Program, ctrl *ast.ControlDecl, cp *controlplane.ControlPlane, seq, outs [][]eval.Value, sigs []eval.Signal) error {
	if cp != nil {
		cp = cp.Clone()
	}
	in, err := eval.New(prog, cp)
	if err != nil {
		return err
	}
	for k, args := range seq {
		inputs := make(map[string]eval.Value, len(args))
		for i, p := range ctrl.Params {
			inputs[p.Name] = args[i]
		}
		out, sig, err := in.RunControl(ctrl.Name, inputs)
		if err != nil {
			return fmt.Errorf("packet %d: %v", k, err)
		}
		o := make([]eval.Value, len(args))
		for i, p := range ctrl.Params {
			o[i] = out[p.Name]
		}
		outs[k] = o
		sigs[k] = sig
	}
	return nil
}

func (e *Experiment) findControl() *ast.ControlDecl {
	for _, c := range e.Prog.Controls {
		if c.Name == e.Control || e.Control == "" {
			return c
		}
	}
	return nil
}

// trialPlan is an experiment's setup for one (Prog, Lat, Control,
// Observer): the control, its parameters' security types by name and by
// position, one comparator and (once a trial needs them) one sampler per
// parameter. It also keeps the trial loop's two runs' buffers, whose input
// trees every trial refills in place.
type trialPlan struct {
	prog     *ast.Program
	lat      lattice.Lattice
	control  string
	observer lattice.Label

	ctrl     *ast.ControlDecl
	obs      lattice.Label // Observer, or the lattice bottom for zero
	byName   map[string]types.SecType
	pts      []types.SecType
	samplers []sampler // see inputs
	diffs    []Comparator

	a, b trialRun
}

// trialRun is one run's per-packet buffers: its input trees, refilled by
// each trial's draws, and its outputs and signals.
type trialRun struct {
	seq  [][]eval.Value
	outs [][]eval.Value
	sigs []eval.Signal
}

// trialPlan returns the experiment's plan, building it on first use and
// again whenever Prog, Lat, Control or Observer differs from what it was
// built from. A failed build is not kept.
func (e *Experiment) trialPlan() (*trialPlan, error) {
	if p := e.plan; p != nil && p.prog == e.Prog && p.lat == e.Lat &&
		p.control == e.Control && p.observer == e.Observer {
		return p, nil
	}
	ctrl := e.findControl()
	if ctrl == nil {
		return nil, fmt.Errorf("ni: control %q not found", e.Control)
	}
	byName, err := e.paramTypes(ctrl)
	if err != nil {
		return nil, err
	}
	obs := e.Observer
	if obs.IsZero() {
		obs = e.Lat.Bottom()
	}
	n := len(ctrl.Params)
	p := &trialPlan{prog: e.Prog, lat: e.Lat, control: e.Control, observer: e.Observer,
		ctrl: ctrl, obs: obs, byName: byName,
		pts: make([]types.SecType, n), diffs: make([]Comparator, n)}
	for i, prm := range ctrl.Params {
		p.pts[i] = byName[prm.Name]
		p.diffs[i] = ObservableDiff(p.pts[i], obs, e.Lat)
	}
	e.plan = p
	return p, nil
}

// inputs returns the plan's samplers, compiling them on first use: an
// exhaustive sweep builds its inputs itself and never needs them.
func (p *trialPlan) inputs() []sampler {
	if p.samplers == nil {
		p.samplers = make([]sampler, len(p.pts))
		for i, pt := range p.pts {
			p.samplers[i] = compileSampler(pt, p.obs, p.lat)
		}
	}
	return p.samplers
}

// runs returns the two runs' buffers sized for packets packets, keeping
// the previous round's input trees when the packet count is unchanged.
func (p *trialPlan) runs(packets int) (*trialRun, *trialRun) {
	if len(p.a.seq) != packets {
		for _, r := range []*trialRun{&p.a, &p.b} {
			r.seq = make([][]eval.Value, packets)
			for k := range r.seq {
				r.seq[k] = make([]eval.Value, len(p.pts))
			}
			r.outs = make([][]eval.Value, packets)
			r.sigs = make([]eval.Signal, packets)
		}
	}
	return &p.a, &p.b
}

// paramTypes resolves the control's parameter types against the real
// lattice so labels are faithful. Trials address parameters by name and
// by position alike, so a repeated name is an error (the base checker
// rejects such a control too).
func (e *Experiment) paramTypes(ctrl *ast.ControlDecl) (map[string]types.SecType, error) {
	var diags diag.List
	res := resolve.New(e.Lat, &diags)
	res.CollectTypeDecls(e.Prog)
	out := map[string]types.SecType{}
	for _, p := range ctrl.Params {
		if _, dup := out[p.Name]; dup {
			return nil, fmt.Errorf("ni: control %s: duplicate parameter %q", ctrl.Name, p.Name)
		}
		out[p.Name] = res.SecType(p.Type)
	}
	if err := diags.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// sampler is a per-parameter input plan with the type walk, field
// lookups, and lattice queries resolved at experiment setup: draw builds a
// random input (same rng consumption as eval.RandomFrom), and vary derives
// run B's input from run A's, keeping every observable (χ ⊑ obs) scalar
// leaf and redrawing every other one. Outputs are compared by a
// Comparator, which the exhaustive oracle shares. draw builds each value
// from the type itself, with every record's and header's declared fields
// in declared order, which is what the compiled machine's positional field
// accesses require. A value FixInputs edited keeps that order (the trial
// loop checks), but it may hold a value of another kind where the type
// has a record, header or stack; vary copies such a value unchanged, with
// no draws.
//
// Both write into dst, the value the same parameter held in the previous
// trial: wherever dst has the shape the type calls for (a record or header
// with the declared field count, a stack of the right length) they refill
// its field and element slots and header validity in place, and they
// allocate only where it does not. The draws are the same either way. So
// a caller hands in a dst only once nothing else holds it: no run keeps
// a container past its return (Machine.RunIndexed), and the trial loop
// compares a trial's outputs before the next trial's draws. dst must not
// share a container with vary's src.
type sampler struct {
	draw func(dst eval.Value, rng eval.Rng) eval.Value
	vary func(dst, src eval.Value, rng eval.Rng) eval.Value
}

func compileSampler(t types.SecType, obs lattice.Label, lat lattice.Lattice) sampler {
	if types.IsScalar(t.T) {
		tt := t.T
		s := sampler{draw: func(_ eval.Value, rng eval.Rng) eval.Value { return eval.RandomFrom(tt, rng) }}
		if lat.Leq(t.L, obs) {
			s.vary = func(_, src eval.Value, _ eval.Rng) eval.Value { return src }
		} else {
			s.vary = func(_, _ eval.Value, rng eval.Rng) eval.Value { return eval.RandomFrom(tt, rng) }
		}
		return s
	}
	switch tt := t.T.(type) {
	case *types.Record, *types.Header:
		_, header := tt.(*types.Header)
		names, subs := fieldSamplers(types.Fields(tt), obs, lat)
		return sampler{
			draw: func(dst eval.Value, rng eval.Rng) eval.Value {
				dst, fs := fieldsInto(dst, header, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].draw(fs[i].Val, rng)}
				}
				if header {
					dst.(*eval.HeaderVal).Valid = true
				}
				return dst
			},
			vary: func(dst, src eval.Value, rng eval.Rng) eval.Value {
				sf, ok := fieldsOf(src, header, len(subs))
				if !ok {
					return eval.Copy(src)
				}
				dst, fs := fieldsInto(dst, header, len(subs))
				for i := range subs {
					fs[i] = eval.NamedValue{Name: names[i], Val: subs[i].vary(fs[i].Val, sf[i].Val, rng)}
				}
				if header {
					dst.(*eval.HeaderVal).Valid = src.(*eval.HeaderVal).Valid
				}
				return dst
			},
		}
	case *types.Stack:
		el := compileSampler(tt.Elem, obs, lat)
		size := tt.Size
		return sampler{
			draw: func(dst eval.Value, rng eval.Rng) eval.Value {
				dv := stackInto(dst, size)
				for i := range dv.Elems {
					dv.Elems[i] = el.draw(dv.Elems[i], rng)
				}
				return dv
			},
			vary: func(dst, src eval.Value, rng eval.Rng) eval.Value {
				sv, ok := src.(*eval.StackVal)
				if !ok {
					return eval.Copy(src)
				}
				dv := stackInto(dst, len(sv.Elems))
				for i := range dv.Elems {
					dv.Elems[i] = el.vary(dv.Elems[i], sv.Elems[i], rng)
				}
				return dv
			},
		}
	default:
		return sampler{
			draw: func(_ eval.Value, rng eval.Rng) eval.Value { return eval.RandomFrom(t.T, rng) },
			vary: func(_, src eval.Value, _ eval.Rng) eval.Value { return src },
		}
	}
}

// fieldsOf returns v's fields when v is a header (header set) or a record
// (header unset) with n fields.
func fieldsOf(v eval.Value, header bool, n int) ([]eval.NamedValue, bool) {
	var fs []eval.NamedValue
	if header {
		hv, ok := v.(*eval.HeaderVal)
		if !ok {
			return nil, false
		}
		fs = hv.Fields
	} else {
		rv, ok := v.(*eval.RecordVal)
		if !ok {
			return nil, false
		}
		fs = rv.Fields
	}
	return fs, len(fs) == n
}

// fieldsInto returns dst and its fields when it is a header or record of n
// fields as fieldsOf reads it, and otherwise a new one of them.
func fieldsInto(dst eval.Value, header bool, n int) (eval.Value, []eval.NamedValue) {
	if fs, ok := fieldsOf(dst, header, n); ok {
		return dst, fs
	}
	fs := make([]eval.NamedValue, n)
	if header {
		return &eval.HeaderVal{Fields: fs}, fs
	}
	return &eval.RecordVal{Fields: fs}, fs
}

// stackInto returns dst when it is a stack of n elements, and otherwise a
// new one.
func stackInto(dst eval.Value, n int) *eval.StackVal {
	if sv, ok := dst.(*eval.StackVal); ok && len(sv.Elems) == n {
		return sv
	}
	return &eval.StackVal{Elems: make([]eval.Value, n)}
}

// fieldSamplers compiles one sampler per declared field, in declared
// order, so draw and vary address a record's or header's fields by
// position.
func fieldSamplers(fields []types.Field, obs lattice.Label, lat lattice.Lattice) ([]string, []sampler) {
	names := make([]string, len(fields))
	subs := make([]sampler, len(fields))
	for i, f := range fields {
		names[i] = f.Name
		subs[i] = compileSampler(f.Type, obs, lat)
	}
	return names, subs
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

// diffObs compares the observable (χ ⊑ obs) scalar leaves of a and b,
// walking records and headers by field name; on a mismatch it returns the
// witness and false. The witness's Where is the path below the comparison
// root (empty at a scalar leaf), prefixed one step at a time as the
// failure unwinds.
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
