package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/diag"
	"repro/internal/lattice"
	"repro/internal/resolve"
	"repro/internal/token"
	"repro/internal/types"
)

// SigKind classifies the control-flow signal a statement evaluates to.
type SigKind int

// Signals.
const (
	SigCont SigKind = iota
	SigExit
	SigReturn
)

// Signal is the result signal of a statement: cont, exit, or return(val).
type Signal struct {
	Kind SigKind
	Val  Value // return value for SigReturn
}

// String renders the signal.
func (s Signal) String() string {
	switch s.Kind {
	case SigExit:
		return "exit"
	case SigReturn:
		return fmt.Sprintf("return %s", s.Val)
	default:
		return "cont"
	}
}

// astBody adapts an AST block to the Body interface in value.go.
type astBody struct{ blk *ast.BlockStmt }

func (astBody) bodyMarker() {}

// tableBody adapts a table declaration to the Body interface.
type tableBody struct{ decl *ast.TableDecl }

func (tableBody) bodyMarker() {}

// permissive resolves any label name, so the interpreter can load programs
// annotated against any lattice: evaluation is label-blind.
type permissive struct{ lattice.Lattice }

func (p permissive) Lookup(string) (lattice.Label, bool) { return p.Bottom(), true }

// labelBlind is the lattice the interpreter and the compiler resolve
// against. Lattices are immutable once built, so one serves every load.
var labelBlind lattice.Lattice = permissive{lattice.TwoPoint()}

// Interp evaluates a program against a control plane.
type Interp struct {
	prog  *ast.Program
	cp    *controlplane.ControlPlane
	store *Store
	res   *resolve.Resolver
	diags diag.List

	global *Env
	// registers holds the persistent storage locations of register
	// declarations, keyed "Control.name". Register state survives across
	// RunControl calls, modelling the multi-packet switch state of the
	// paper's Section 7 extension.
	registers map[string]Loc
	// fuel bounds the number of statements evaluated, guarding against
	// interpreter bugs (well-typed Core P4 programs always terminate).
	fuel int
	// depth tracks closure-call nesting; Core P4 forbids recursion, so a
	// deep stack indicates an ill-formed program and is rejected rather
	// than allowed to exhaust the host stack.
	depth int
}

// DefaultFuel is the default statement budget per control invocation.
const DefaultFuel = 1 << 20

// MaxCallDepth bounds closure-call nesting (P4 has no recursion; real
// programs nest a handful of calls at most).
const MaxCallDepth = 512

// New prepares an interpreter for prog: type declarations are collected,
// builtins and match-kind members bound, and top-level constants evaluated.
// The control plane may be nil (all table applies miss).
func New(prog *ast.Program, cp *controlplane.ControlPlane) (*Interp, error) {
	if cp == nil {
		cp = controlplane.New()
	}
	in := &Interp{prog: prog, cp: cp, store: NewStore(), fuel: DefaultFuel,
		registers: map[string]Loc{}}
	in.res = resolve.New(labelBlind, &in.diags)
	in.res.CollectTypeDecls(prog)
	if err := in.diags.Err(); err != nil {
		return nil, err
	}
	in.global = NewEnv()
	for _, name := range []string{"mark_to_drop", "NoAction"} {
		in.global.Bind(name, in.store.Alloc(BuiltinVal(name)))
	}
	for _, m := range in.res.MatchKinds {
		in.global.Bind(m, in.store.Alloc(MatchKindVal(m)))
	}
	for _, d := range prog.Decls {
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			continue
		}
		env, _, err := in.evalVarDecl(in.global, vd)
		if err != nil {
			return nil, err
		}
		in.global = env
	}
	// Declare all tables of all controls with the control plane so entries
	// can be installed before running.
	for _, ctrl := range prog.Controls {
		for _, d := range ctrl.Locals {
			if td, ok := d.(*ast.TableDecl); ok {
				kinds := make([]string, len(td.Keys))
				for i, k := range td.Keys {
					kinds[i] = k.MatchKind
				}
				if in.cp.Table(td.Name) == nil {
					in.cp.DeclareTable(td.Name, kinds)
				}
			}
		}
	}
	return in, nil
}

// ControlPlane returns the interpreter's control plane for entry
// installation.
func (in *Interp) ControlPlane() *controlplane.ControlPlane { return in.cp }

// ParamType returns the resolved type of a control parameter.
func (in *Interp) ParamType(control, param string) (types.SecType, error) {
	ctrl := in.findControl(control)
	if ctrl == nil {
		return types.SecType{}, fmt.Errorf("eval: no control %q", control)
	}
	for _, p := range ctrl.Params {
		if p.Name == param {
			st := in.res.SecType(p.Type)
			if err := in.diags.Err(); err != nil {
				return types.SecType{}, err
			}
			return st, nil
		}
	}
	return types.SecType{}, fmt.Errorf("eval: control %q has no parameter %q", control, param)
}

func (in *Interp) findControl(name string) *ast.ControlDecl {
	for _, c := range in.prog.Controls {
		if c.Name == name || name == "" {
			return c
		}
	}
	return nil
}

// RunControl executes the named control block ("" = the first control).
// inputs supplies the initial values of the control's parameters (missing
// parameters get zero values); outputs returns their final values, i.e.
// the copied-out inout state.
func (in *Interp) RunControl(name string, inputs map[string]Value) (map[string]Value, Signal, error) {
	ctrl := in.findControl(name)
	if ctrl == nil {
		return nil, Signal{}, fmt.Errorf("eval: no control %q", name)
	}
	in.fuel = DefaultFuel
	env := in.global.Child()
	paramLocs := map[string]Loc{}
	for _, p := range ctrl.Params {
		st := in.res.SecType(p.Type)
		if err := in.diags.Err(); err != nil {
			return nil, Signal{}, err
		}
		var v Value
		if given, ok := inputs[p.Name]; ok {
			v = Copy(given)
		} else {
			v = Zero(st.T)
		}
		l := in.store.Alloc(v)
		paramLocs[p.Name] = l
		env.Bind(p.Name, l)
	}
	for _, d := range ctrl.Locals {
		var err error
		switch d := d.(type) {
		case *ast.VarDecl:
			if d.Register {
				// Registers keep their storage across packets.
				key := ctrl.Name + "." + d.Name
				loc, seen := in.registers[key]
				if !seen {
					st := in.res.SecType(d.Type)
					if derr := in.diags.Err(); derr != nil {
						return nil, Signal{}, derr
					}
					loc = in.store.Alloc(Zero(st.T))
					in.registers[key] = loc
				}
				env.Bind(d.Name, loc)
				continue
			}
			env, _, err = in.evalVarDecl(env, d)
		case *ast.FuncDecl:
			ft := in.funcType(d)
			clos := &ClosVal{Name: d.Name, Env: env, Fn: ft, Body: astBody{d.Body}}
			env.Bind(d.Name, in.store.Alloc(clos))
		case *ast.TableDecl:
			tv := &TableVal{Name: d.Name, Env: env, Decl: tableBody{d}}
			env.Bind(d.Name, in.store.Alloc(tv))
		default:
			err = fmt.Errorf("%s: unsupported declaration in control body", d.Pos())
		}
		if err != nil {
			return nil, Signal{}, err
		}
	}
	_, sig, err := in.evalBlock(env, ctrl.Apply)
	if err != nil {
		return nil, sig, err
	}
	out := map[string]Value{}
	for name, l := range paramLocs {
		out[name] = Copy(in.store.Get(l))
	}
	return out, sig, nil
}

// funcType resolves a function declaration's semantic parameter list; the
// IFC-specific PCFn is irrelevant at run time and left at the zero label.
func (in *Interp) funcType(d *ast.FuncDecl) *types.Func {
	params := make([]types.Param, 0, len(d.Params))
	for _, p := range d.Params {
		st := in.res.SecType(p.Type)
		dir := types.In
		ctrlPlane := false
		switch p.Dir {
		case ast.DirOut:
			dir = types.Out
		case ast.DirInOut:
			dir = types.InOut
		case ast.DirNone:
			ctrlPlane = d.IsAction
		}
		params = append(params, types.Param{Name: p.Name, Dir: dir, Type: st, CtrlPlane: ctrlPlane})
	}
	ret := types.SecType{T: types.Unit{}}
	if d.Ret != nil {
		ret = in.res.SecType(d.Ret)
	}
	return &types.Func{Params: params, Ret: ret, IsAction: d.IsAction}
}

// ---------------------------------------------------------------------------
// Declarations

func (in *Interp) evalVarDecl(env *Env, d *ast.VarDecl) (*Env, Signal, error) {
	st := in.res.SecType(d.Type)
	if err := in.diags.Err(); err != nil {
		return env, Signal{}, err
	}
	var v Value
	if d.Init != nil {
		iv, err := in.evalExpr(env, d.Init)
		if err != nil {
			return env, Signal{}, err
		}
		v = coerceValue(iv, st.T)
	} else {
		v = Zero(st.T)
	}
	env.Bind(d.Name, in.store.Alloc(v))
	return env, Signal{Kind: SigCont}, nil
}

// coerceValue adapts an IntVal to the declared bit width (the dynamic
// counterpart of the checker's literal coercion).
func coerceValue(v Value, t types.Type) Value {
	if iv, ok := v.(IntVal); ok {
		if bt, ok := t.(types.Bit); ok {
			return NewBit(bt.W, uint64(iv))
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Statements

func (in *Interp) evalBlock(env *Env, b *ast.BlockStmt) (*Env, Signal, error) {
	scope := env.Child()
	for _, s := range b.Stmts {
		var sig Signal
		var err error
		scope, sig, err = in.evalStmt(scope, s)
		if err != nil {
			return scope, sig, err
		}
		if sig.Kind != SigCont {
			return scope, sig, nil
		}
	}
	return scope, Signal{Kind: SigCont}, nil
}

func (in *Interp) evalStmt(env *Env, s ast.Stmt) (*Env, Signal, error) {
	in.fuel--
	if in.fuel <= 0 {
		return env, Signal{}, fmt.Errorf("%s: evaluation fuel exhausted", s.Pos())
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		_, sig, err := in.evalBlock(env, s)
		return env, sig, err

	case *ast.AssignStmt:
		lv, err := in.evalLValue(env, s.LHS)
		if err != nil {
			return env, Signal{}, err
		}
		rv, err := in.evalExpr(env, s.RHS)
		if err != nil {
			return env, Signal{}, err
		}
		if err := in.writeLValue(env, lv, rv); err != nil {
			return env, Signal{}, err
		}
		return env, Signal{Kind: SigCont}, nil

	case *ast.IfStmt:
		cv, err := in.evalExpr(env, s.Cond)
		if err != nil {
			return env, Signal{}, err
		}
		b, ok := cv.(BoolVal)
		if !ok {
			return env, Signal{}, fmt.Errorf("%s: if condition evaluated to %s, not bool", s.P, cv)
		}
		if bool(b) {
			_, sig, err := in.evalBlock(env, s.Then)
			return env, sig, err
		}
		if s.Else != nil {
			_, sig, err := in.evalStmt(env.Child(), s.Else)
			return env, sig, err
		}
		return env, Signal{Kind: SigCont}, nil

	case *ast.ExitStmt:
		return env, Signal{Kind: SigExit}, nil

	case *ast.ReturnStmt:
		if s.X == nil {
			return env, Signal{Kind: SigReturn, Val: UnitVal{}}, nil
		}
		v, err := in.evalExpr(env, s.X)
		if err != nil {
			return env, Signal{}, err
		}
		return env, Signal{Kind: SigReturn, Val: v}, nil

	case *ast.ExprStmt:
		call, ok := s.X.(*ast.Call)
		if !ok {
			return env, Signal{}, fmt.Errorf("%s: expression statement is not a call", s.P)
		}
		_, sig, err := in.evalCall(env, call)
		if err != nil {
			return env, Signal{}, err
		}
		// A return signal from a callee is absorbed by the call; exit
		// propagates (petr4 semantics).
		if sig.Kind == SigExit {
			return env, sig, nil
		}
		return env, Signal{Kind: SigCont}, nil

	case *ast.ApplyStmt:
		sig, err := in.applyTable(env, s)
		return env, sig, err

	case *ast.DeclStmt:
		return in.evalVarDecl(env, s.Decl)

	default:
		return env, Signal{}, fmt.Errorf("%s: unsupported statement", s.Pos())
	}
}

// ---------------------------------------------------------------------------
// L-values (Appendices F and G)

type accessor struct {
	field string // set for lval.f
	index int    // used when field == ""
}

// lvalue is an evaluated l-value: a base variable plus a path of field
// projections and (evaluated) indices.
type lvalue struct {
	pos  token.Pos
	base string
	path []accessor
}

func (in *Interp) evalLValue(env *Env, e ast.Expr) (lvalue, error) {
	switch e := e.(type) {
	case *ast.Ident:
		return lvalue{pos: e.P, base: e.Name}, nil
	case *ast.Member:
		lv, err := in.evalLValue(env, e.X)
		if err != nil {
			return lvalue{}, err
		}
		lv.path = append(lv.path, accessor{field: e.Field})
		return lv, nil
	case *ast.Index:
		lv, err := in.evalLValue(env, e.X)
		if err != nil {
			return lvalue{}, err
		}
		iv, err := in.evalExpr(env, e.I)
		if err != nil {
			return lvalue{}, err
		}
		idx, err := toIndex(iv)
		if err != nil {
			return lvalue{}, fmt.Errorf("%s: %v", e.P, err)
		}
		lv.path = append(lv.path, accessor{index: idx})
		return lv, nil
	default:
		return lvalue{}, fmt.Errorf("%s: %s is not an l-value", e.Pos(), e)
	}
}

func toIndex(v Value) (int, error) {
	switch v := v.(type) {
	case BitVal:
		return int(v.V), nil
	case IntVal:
		if v < 0 {
			return 0, fmt.Errorf("negative index %d", v)
		}
		return int(v), nil
	default:
		return 0, fmt.Errorf("index evaluated to %s, not a number", v)
	}
}

// readLValue reads the value at an evaluated l-value.
func (in *Interp) readLValue(env *Env, lv lvalue) (Value, error) {
	l, ok := env.Lookup(lv.base)
	if !ok {
		return nil, fmt.Errorf("%s: undeclared variable %q", lv.pos, lv.base)
	}
	v := in.store.Get(l)
	for _, acc := range lv.path {
		var err error
		v, err = project(v, acc)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lv.pos, err)
		}
	}
	return Copy(v), nil
}

func project(v Value, acc accessor) (Value, error) {
	if acc.field != "" {
		switch v := v.(type) {
		case *RecordVal:
			if f := fieldSlot(v.Fields, acc.field); f != nil {
				return f.Val, nil
			}
		case *HeaderVal:
			if f := fieldSlot(v.Fields, acc.field); f != nil {
				return f.Val, nil
			}
		}
		return nil, fmt.Errorf("value %s has no field %q", v, acc.field)
	}
	st, ok := v.(*StackVal)
	if !ok {
		return nil, fmt.Errorf("value %s is not indexable", v)
	}
	if acc.index < 0 || acc.index >= len(st.Elems) {
		// Out-of-bounds reads yield a havoc value per the semantics; we
		// use the zero value of the first element's shape.
		if len(st.Elems) == 0 {
			return UnitVal{}, nil
		}
		return Copy(st.Elems[0]), nil
	}
	return st.Elems[acc.index], nil
}

// writeLValue implements the ⇓write judgement of Appendix G: the base
// variable's value is functionally updated along the path and stored back.
// Out-of-bounds stack writes are dropped (the havoc case).
func (in *Interp) writeLValue(env *Env, lv lvalue, nv Value) error {
	l, ok := env.Lookup(lv.base)
	if !ok {
		return fmt.Errorf("%s: undeclared variable %q", lv.pos, lv.base)
	}
	old := in.store.Get(l)
	updated, err := updateAlong(old, lv.path, nv)
	if err != nil {
		return fmt.Errorf("%s: %v", lv.pos, err)
	}
	in.store.Set(l, updated)
	return nil
}

func updateAlong(v Value, path []accessor, nv Value) (Value, error) {
	if len(path) == 0 {
		// Adapt literal ints to the written slot's width.
		if bv, ok := v.(BitVal); ok {
			if iv, ok2 := nv.(IntVal); ok2 {
				return NewBit(bv.W, uint64(iv)), nil
			}
			if b2, ok2 := nv.(BitVal); ok2 {
				return NewBit(bv.W, b2.V), nil
			}
		}
		return Copy(nv), nil
	}
	acc := path[0]
	if acc.field != "" {
		switch v := v.(type) {
		case *RecordVal:
			fs := make([]NamedValue, len(v.Fields))
			copy(fs, v.Fields)
			slot := fieldSlot(fs, acc.field)
			if slot == nil {
				return nil, fmt.Errorf("value %s has no field %q", v, acc.field)
			}
			inner, err := updateAlong(slot.Val, path[1:], nv)
			if err != nil {
				return nil, err
			}
			slot.Val = inner
			return &RecordVal{fs}, nil
		case *HeaderVal:
			fs := make([]NamedValue, len(v.Fields))
			copy(fs, v.Fields)
			slot := fieldSlot(fs, acc.field)
			if slot == nil {
				return nil, fmt.Errorf("value %s has no field %q", v, acc.field)
			}
			inner, err := updateAlong(slot.Val, path[1:], nv)
			if err != nil {
				return nil, err
			}
			slot.Val = inner
			return &HeaderVal{v.Valid, fs}, nil
		default:
			return nil, fmt.Errorf("value %s has no field %q", v, acc.field)
		}
	}
	st, ok := v.(*StackVal)
	if !ok {
		return nil, fmt.Errorf("value %s is not indexable", v)
	}
	if acc.index < 0 || acc.index >= len(st.Elems) {
		return v, nil // out-of-bounds write: havoc, dropped
	}
	es := make([]Value, len(st.Elems))
	copy(es, st.Elems)
	inner, err := updateAlong(es[acc.index], path[1:], nv)
	if err != nil {
		return nil, err
	}
	es[acc.index] = inner
	return &StackVal{es}, nil
}

// ---------------------------------------------------------------------------
// Expressions

func (in *Interp) evalExpr(env *Env, e ast.Expr) (Value, error) {
	switch e := e.(type) {
	case *ast.BoolLit:
		return BoolVal(e.Val), nil
	case *ast.IntLit:
		if e.HasWidth {
			return NewBit(e.Width, e.Val), nil
		}
		return IntVal(int64(e.Val)), nil
	case *ast.Ident:
		l, ok := env.Lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("%s: undeclared variable %q", e.P, e.Name)
		}
		return in.store.Get(l), nil
	case *ast.Unary:
		return in.evalUnary(env, e)
	case *ast.Binary:
		return in.evalBinary(env, e)
	case *ast.RecordLit:
		fs := make([]NamedValue, 0, len(e.Fields))
		for _, f := range e.Fields {
			v, err := in.evalExpr(env, f.Value)
			if err != nil {
				return nil, err
			}
			fs = append(fs, NamedValue{f.Name, v})
		}
		return &RecordVal{fs}, nil
	case *ast.Member:
		xv, err := in.evalExpr(env, e.X)
		if err != nil {
			return nil, err
		}
		v, err := project(xv, accessor{field: e.Field})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", e.P, err)
		}
		return v, nil
	case *ast.Index:
		xv, err := in.evalExpr(env, e.X)
		if err != nil {
			return nil, err
		}
		iv, err := in.evalExpr(env, e.I)
		if err != nil {
			return nil, err
		}
		idx, err := toIndex(iv)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", e.P, err)
		}
		v, err := project(xv, accessor{index: idx})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", e.P, err)
		}
		return v, nil
	case *ast.Call:
		v, sig, err := in.evalCall(env, e)
		if err != nil {
			return nil, err
		}
		if sig.Kind == SigExit {
			return nil, fmt.Errorf("%s: exit inside an expression call", e.P)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%s: unsupported expression", e.Pos())
	}
}

func (in *Interp) evalUnary(env *Env, e *ast.Unary) (Value, error) {
	xv, err := in.evalExpr(env, e.X)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case token.NOT:
		b, ok := xv.(BoolVal)
		if !ok {
			return nil, fmt.Errorf("%s: ! on %s", e.P, xv)
		}
		return BoolVal(!bool(b)), nil
	case token.MINUS:
		switch v := xv.(type) {
		case IntVal:
			return IntVal(-int64(v)), nil
		case BitVal:
			return NewBit(v.W, -v.V), nil
		}
		return nil, fmt.Errorf("%s: - on %s", e.P, xv)
	case token.BITNOT:
		b, ok := xv.(BitVal)
		if !ok {
			return nil, fmt.Errorf("%s: ~ on %s", e.P, xv)
		}
		return NewBit(b.W, ^b.V), nil
	default:
		return nil, fmt.Errorf("%s: unsupported unary operator %s", e.P, e.Op)
	}
}

// numPair coerces a (BitVal, IntVal) mix to a pair of same-width bit
// values, or two IntVals, for arithmetic.
func numPair(a, b Value) (Value, Value, bool) {
	switch av := a.(type) {
	case IntVal:
		switch bv := b.(type) {
		case IntVal:
			return av, bv, true
		case BitVal:
			return NewBit(bv.W, uint64(av)), bv, true
		}
	case BitVal:
		switch bv := b.(type) {
		case IntVal:
			return av, NewBit(av.W, uint64(bv)), true
		case BitVal:
			if av.W == bv.W {
				return av, bv, true
			}
		}
	}
	return nil, nil, false
}

func (in *Interp) evalBinary(env *Env, e *ast.Binary) (Value, error) {
	// Short-circuit booleans first.
	if e.Op == token.AND || e.Op == token.OR {
		xv, err := in.evalExpr(env, e.X)
		if err != nil {
			return nil, err
		}
		xb, ok := xv.(BoolVal)
		if !ok {
			return nil, fmt.Errorf("%s: %s on %s", e.P, e.Op, xv)
		}
		if e.Op == token.AND && !bool(xb) {
			return BoolVal(false), nil
		}
		if e.Op == token.OR && bool(xb) {
			return BoolVal(true), nil
		}
		yv, err := in.evalExpr(env, e.Y)
		if err != nil {
			return nil, err
		}
		yb, ok := yv.(BoolVal)
		if !ok {
			return nil, fmt.Errorf("%s: %s on %s", e.P, e.Op, yv)
		}
		return yb, nil
	}
	xv, err := in.evalExpr(env, e.X)
	if err != nil {
		return nil, err
	}
	yv, err := in.evalExpr(env, e.Y)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case token.EQ:
		a, b, ok := numPair(xv, yv)
		if ok {
			return BoolVal(ValueEqual(a, b)), nil
		}
		return BoolVal(ValueEqual(xv, yv)), nil
	case token.NEQ:
		a, b, ok := numPair(xv, yv)
		if ok {
			return BoolVal(!ValueEqual(a, b)), nil
		}
		return BoolVal(!ValueEqual(xv, yv)), nil
	}
	a, b, ok := numPair(xv, yv)
	if !ok {
		return nil, fmt.Errorf("%s: operator %s on %s and %s", e.P, e.Op, xv, yv)
	}
	if ai, ok := a.(IntVal); ok {
		bi := b.(IntVal)
		return evalIntOp(e, int64(ai), int64(bi))
	}
	ab := a.(BitVal)
	bb := b.(BitVal)
	return evalBitOp(e, ab, bb)
}

func evalIntOp(e *ast.Binary, a, b int64) (Value, error) {
	switch e.Op {
	case token.PLUS:
		return IntVal(a + b), nil
	case token.MINUS:
		return IntVal(a - b), nil
	case token.STAR:
		return IntVal(a * b), nil
	case token.SLASH:
		if b == 0 {
			return nil, fmt.Errorf("%s: division by zero", e.P)
		}
		return IntVal(a / b), nil
	case token.PERCENT:
		if b == 0 {
			return nil, fmt.Errorf("%s: modulo by zero", e.P)
		}
		return IntVal(a % b), nil
	case token.LT:
		return BoolVal(a < b), nil
	case token.GT:
		return BoolVal(a > b), nil
	case token.LEQ:
		return BoolVal(a <= b), nil
	case token.GEQ:
		return BoolVal(a >= b), nil
	case token.SHL:
		return IntVal(a << uint(b&63)), nil
	case token.SHR:
		return IntVal(a >> uint(b&63)), nil
	default:
		return nil, fmt.Errorf("%s: operator %s undefined on int", e.P, e.Op)
	}
}

func evalBitOp(e *ast.Binary, a, b BitVal) (Value, error) {
	w := a.W
	switch e.Op {
	case token.PLUS:
		return NewBit(w, a.V+b.V), nil
	case token.MINUS:
		return NewBit(w, a.V-b.V), nil
	case token.STAR:
		return NewBit(w, a.V*b.V), nil
	case token.SLASH:
		if b.V == 0 {
			return nil, fmt.Errorf("%s: division by zero", e.P)
		}
		return NewBit(w, a.V/b.V), nil
	case token.PERCENT:
		if b.V == 0 {
			return nil, fmt.Errorf("%s: modulo by zero", e.P)
		}
		return NewBit(w, a.V%b.V), nil
	case token.LT:
		return BoolVal(a.V < b.V), nil
	case token.GT:
		return BoolVal(a.V > b.V), nil
	case token.LEQ:
		return BoolVal(a.V <= b.V), nil
	case token.GEQ:
		return BoolVal(a.V >= b.V), nil
	case token.AMP:
		return NewBit(w, a.V&b.V), nil
	case token.PIPE:
		return NewBit(w, a.V|b.V), nil
	case token.CARET:
		return NewBit(w, a.V^b.V), nil
	case token.SHL:
		if b.V >= uint64(w) {
			return NewBit(w, 0), nil
		}
		return NewBit(w, a.V<<b.V), nil
	case token.SHR:
		if b.V >= uint64(w) {
			return NewBit(w, 0), nil
		}
		return NewBit(w, a.V>>b.V), nil
	default:
		return nil, fmt.Errorf("%s: operator %s undefined on bit<%d>", e.P, e.Op, w)
	}
}

// ---------------------------------------------------------------------------
// Calls (Appendix H: copy-in / copy-out)

// argSpec is either a syntactic argument (evaluated per the parameter's
// direction) or a pre-evaluated control-plane value (always in).
type argSpec struct {
	expr ast.Expr
	val  Value
}

func (in *Interp) evalCall(env *Env, call *ast.Call) (Value, Signal, error) {
	fv, err := in.evalExpr(env, call.Fun)
	if err != nil {
		return nil, Signal{}, err
	}
	args := make([]argSpec, len(call.Args))
	for i, a := range call.Args {
		args[i] = argSpec{expr: a}
	}
	return in.invoke(env, call.P, fv, args)
}

// invoke calls a closure or builtin with the given arguments, evaluating
// syntactic arguments in callerEnv.
func (in *Interp) invoke(callerEnv *Env, pos token.Pos, fv Value, args []argSpec) (Value, Signal, error) {
	switch fv := fv.(type) {
	case BuiltinVal:
		return in.invokeBuiltin(callerEnv, pos, fv, args)
	case *ClosVal:
	default:
		return nil, Signal{}, fmt.Errorf("%s: %s is not callable", pos, fv)
	}
	clos := fv.(*ClosVal)
	if in.depth >= MaxCallDepth {
		return nil, Signal{}, fmt.Errorf("%s: call depth exceeds %d (recursion is not allowed in Core P4)", pos, MaxCallDepth)
	}
	in.depth++
	defer func() { in.depth-- }()
	if len(args) != len(clos.Fn.Params) {
		return nil, Signal{}, fmt.Errorf("%s: %s takes %d arguments, got %d",
			pos, clos.Name, len(clos.Fn.Params), len(args))
	}
	type writeback struct {
		lv  lvalue
		loc Loc
	}
	var wbs []writeback
	callEnv := clos.Env.Child()
	for i, p := range clos.Fn.Params {
		a := args[i]
		var loc Loc
		switch {
		case a.val != nil:
			loc = in.store.Alloc(coerceValue(a.val, p.Type.T))
		case p.Dir == types.In:
			v, err := in.evalExpr(callerEnv, a.expr)
			if err != nil {
				return nil, Signal{}, err
			}
			loc = in.store.Alloc(Copy(coerceValue(v, p.Type.T)))
		case p.Dir == types.Out:
			lv, err := in.evalLValue(callerEnv, a.expr)
			if err != nil {
				return nil, Signal{}, err
			}
			loc = in.store.Alloc(Zero(p.Type.T))
			wbs = append(wbs, writeback{lv, loc})
		default: // inout
			lv, err := in.evalLValue(callerEnv, a.expr)
			if err != nil {
				return nil, Signal{}, err
			}
			v, err := in.readLValue(callerEnv, lv)
			if err != nil {
				return nil, Signal{}, err
			}
			loc = in.store.Alloc(coerceValue(v, p.Type.T))
			wbs = append(wbs, writeback{lv, loc})
		}
		callEnv.Bind(p.Name, loc)
	}
	body, ok := clos.Body.(astBody)
	if !ok {
		return nil, Signal{}, fmt.Errorf("%s: closure %s has no body", pos, clos.Name)
	}
	_, sig, err := in.evalBlock(callEnv, body.blk)
	if err != nil {
		return nil, Signal{}, err
	}
	// Copy out (also on exit, so partial writes are visible, matching the
	// store-passing semantics in which writes happen eagerly).
	for _, wb := range wbs {
		if err := in.writeLValue(callerEnv, wb.lv, in.store.Get(wb.loc)); err != nil {
			return nil, Signal{}, err
		}
	}
	switch sig.Kind {
	case SigReturn:
		return sig.Val, Signal{Kind: SigCont}, nil
	case SigExit:
		return UnitVal{}, sig, nil
	default:
		return UnitVal{}, Signal{Kind: SigCont}, nil
	}
}

func (in *Interp) invokeBuiltin(callerEnv *Env, pos token.Pos, b BuiltinVal, args []argSpec) (Value, Signal, error) {
	switch string(b) {
	case "NoAction":
		return UnitVal{}, Signal{Kind: SigCont}, nil
	case "mark_to_drop":
		if len(args) != 1 || args[0].expr == nil {
			return nil, Signal{}, fmt.Errorf("%s: mark_to_drop takes one inout argument", pos)
		}
		lv, err := in.evalLValue(callerEnv, args[0].expr)
		if err != nil {
			return nil, Signal{}, err
		}
		v, err := in.readLValue(callerEnv, lv)
		if err != nil {
			return nil, Signal{}, err
		}
		rec, ok := v.(*RecordVal)
		if !ok {
			return nil, Signal{}, fmt.Errorf("%s: mark_to_drop argument is %s, not standard metadata", pos, v)
		}
		fs := make([]NamedValue, len(rec.Fields))
		copy(fs, rec.Fields)
		if f := fieldSlot(fs, "egress_spec"); f != nil {
			if bv, ok := f.Val.(BitVal); ok {
				f.Val = NewBit(bv.W, Mask(bv.W, ^uint64(0))) // drop port: all ones
			}
		}
		if f := fieldSlot(fs, "drop_flag"); f != nil {
			if bv, ok := f.Val.(BitVal); ok {
				f.Val = NewBit(bv.W, 1)
			}
		}
		if err := in.writeLValue(callerEnv, lv, &RecordVal{fs}); err != nil {
			return nil, Signal{}, err
		}
		return UnitVal{}, Signal{Kind: SigCont}, nil
	default:
		return nil, Signal{}, fmt.Errorf("%s: unknown builtin %s", pos, b)
	}
}

// ---------------------------------------------------------------------------
// Table application

// applyTable implements table invocation: evaluate the keys in the table's
// captured environment, ask the control plane for a matching entry, and
// invoke the selected action with its compile-time-bound arguments plus the
// control-plane-supplied ones. A miss with no default action is a no-op.
func (in *Interp) applyTable(env *Env, s *ast.ApplyStmt) (Signal, error) {
	tv0, err := in.evalExpr(env, s.Table)
	if err != nil {
		return Signal{}, err
	}
	tv, ok := tv0.(*TableVal)
	if !ok {
		return Signal{}, fmt.Errorf("%s: %s is not a table", s.P, tv0)
	}
	decl := tv.Decl.(tableBody).decl
	keys := make([]uint64, len(decl.Keys))
	for i, k := range decl.Keys {
		kv, err := in.evalExpr(tv.Env, k.Expr)
		if err != nil {
			return Signal{}, err
		}
		u, err := scalarToUint(kv)
		if err != nil {
			return Signal{}, fmt.Errorf("%s: table %s key %d: %v", s.P, tv.Name, i, err)
		}
		keys[i] = u
	}
	call, ok := in.cp.Lookup(tv.Name, keys)
	if !ok {
		// Miss with no control-plane default: fall back to the
		// default_action declared in the source, if any; otherwise no-op.
		if decl.Default == nil {
			return Signal{Kind: SigCont}, nil
		}
		call = &controlplane.ActionCall{Action: decl.Default.Name}
	}
	// Locate the declared action reference with this name (default refs
	// may also name any declared action).
	var ref *ast.ActionRef
	for i := range decl.Actions {
		if decl.Actions[i].Name == call.Action {
			ref = &decl.Actions[i]
			break
		}
	}
	if ref == nil && decl.Default != nil && decl.Default.Name == call.Action {
		ref = decl.Default
	}
	if ref == nil {
		return Signal{}, fmt.Errorf("%s: control plane selected action %q not declared by table %s",
			s.P, call.Action, tv.Name)
	}
	l, ok := tv.Env.Lookup(ref.Name)
	if !ok {
		return Signal{}, fmt.Errorf("%s: action %q not in scope of table %s", s.P, ref.Name, tv.Name)
	}
	av := in.store.Get(l)
	// Assemble arguments: bound expressions first (evaluated in the
	// table's captured environment), then control-plane values.
	var args []argSpec
	for _, a := range ref.Args {
		args = append(args, argSpec{expr: a})
	}
	if clos, ok := av.(*ClosVal); ok {
		bound := len(args)
		need := len(clos.Fn.Params) - bound
		if need < 0 || len(call.Args) < need {
			return Signal{}, fmt.Errorf("%s: control plane supplied %d args for %s, need %d",
				s.P, len(call.Args), ref.Name, need)
		}
		for i := 0; i < need; i++ {
			p := clos.Fn.Params[bound+i]
			args = append(args, argSpec{val: uintToScalar(call.Args[i], p.Type.T)})
		}
	}
	_, sig, err := in.invoke(tv.Env, s.P, av, args)
	if err != nil {
		return Signal{}, err
	}
	if sig.Kind == SigExit {
		return sig, nil
	}
	return Signal{Kind: SigCont}, nil
}

func scalarToUint(v Value) (uint64, error) {
	switch v := v.(type) {
	case BitVal:
		return v.V, nil
	case IntVal:
		return uint64(v), nil
	case BoolVal:
		if v {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("value %s is not a scalar key", v)
	}
}

func uintToScalar(u uint64, t types.Type) Value {
	switch t := t.(type) {
	case types.Bit:
		return NewBit(t.W, u)
	case types.Bool:
		return BoolVal(u != 0)
	case types.Int:
		return IntVal(int64(u))
	default:
		return NewBit(64, u)
	}
}
