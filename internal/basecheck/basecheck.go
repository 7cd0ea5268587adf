// Package basecheck implements the ordinary (label-insensitive) Core P4
// type system of Section 3.3 — the role played by the stock p4c typechecker
// in the paper's Table 1 baseline ("Unannotated, p4c").
//
// It performs the same structural work as the IFC checker in internal/core
// — name resolution, typedef unfolding, parameter/argument matching, l-value
// classification, table well-formedness — but ignores every security label
// and enforces no pc, flow, or effect constraints. Comparing its running
// time against internal/core on the same program reproduces the Table 1
// overhead measurement.
package basecheck

import (
	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/lattice"
	"repro/internal/resolve"
	"repro/internal/token"
	"repro/internal/types"
)

// Result is the outcome of base-checking a program.
type Result struct {
	OK    bool
	Diags []*diag.Diagnostic
}

// Err returns nil if the program typechecked, otherwise an aggregate error.
func (r *Result) Err() error {
	if r.OK {
		return nil
	}
	var l diag.List
	for _, d := range r.Diags {
		if d.Severity == diag.Error {
			l.RuleErrorf(d.Pos, d.Rule, "%s", d.Msg)
		}
	}
	return l.Err()
}

// Check typechecks prog with the ordinary Core P4 type system, ignoring
// security labels. Label names must still be syntactically present or
// absent — they are resolved against a permissive two-point lattice so the
// same annotated sources can be base-checked.
func Check(prog *ast.Program) *Result {
	c := &checker{lat: labelBlind}
	c.res = resolve.New(c.lat, &c.diags)
	c.run(prog)
	return &Result{OK: !c.diags.HasErrors(), Diags: c.diags.All()}
}

// permissive resolves any label name to bottom, so base-checking never
// fails on an annotation (the baseline compiler simply does not know about
// labels).
type permissive struct{ lattice.Lattice }

func (p permissive) Lookup(string) (lattice.Label, bool) { return p.Bottom(), true }

// labelBlind is the lattice every base check resolves against. Lattices
// are immutable once built, so one serves every check.
var labelBlind lattice.Lattice = permissive{lattice.TwoPoint()}

type checker struct {
	lat   lattice.Lattice
	diags diag.List
	res   *resolve.Resolver
}

func (c *checker) run(prog *ast.Program) {
	c.res.CollectTypeDecls(prog)
	env := types.NewEnv()
	for _, b := range c.res.Builtins() {
		env.Bind(b.Name, b.Type)
	}
	mkType := types.SecType{T: c.res.MatchKindType(), L: c.lat.Bottom()}
	for _, m := range c.res.MatchKinds {
		env.Bind(m, mkType)
	}
	for _, d := range prog.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			c.checkVarDecl(env, vd)
		}
	}
	if len(prog.Controls) == 0 {
		c.diags.Errorf(token.Pos{}, "program has no control block")
		return
	}
	for _, ctrl := range prog.Controls {
		c.checkControl(env, ctrl)
	}
}

func (c *checker) checkControl(env *types.Env, ctrl *ast.ControlDecl) {
	outer := env.Open()
	for _, p := range ctrl.Params {
		st := c.res.SecType(p.Type)
		if st.IsZero() {
			continue
		}
		if env.InCurrentScope(p.Name) {
			c.diags.Errorf(p.P, "duplicate parameter %q", p.Name)
			continue
		}
		env.Bind(p.Name, st)
	}
	for _, d := range ctrl.Locals {
		switch d := d.(type) {
		case *ast.VarDecl:
			c.checkVarDecl(env, d)
		case *ast.FuncDecl:
			c.checkFuncDecl(env, d)
		case *ast.TableDecl:
			c.checkTableDecl(env, d)
		default:
			c.diags.Errorf(d.Pos(), "unsupported declaration in control body")
		}
	}
	c.checkBlock(env, ctrl.Apply)
	env.Close(outer)
}

func (c *checker) checkVarDecl(env *types.Env, d *ast.VarDecl) {
	declared := c.res.SecType(d.Type)
	if declared.IsZero() {
		return
	}
	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	if d.Init != nil {
		it := c.checkExpr(env, d.Init)
		if !it.IsZero() && !types.BaseEqual(it.T, declared.T) {
			it = coerceLit(it, declared)
			if !types.BaseEqual(it.T, declared.T) {
				c.diags.Errorf(d.P, "cannot initialize %s %s with %s", declared.T, d.Name, it.T)
			}
		}
	}
	env.Bind(d.Name, declared)
}

func (c *checker) checkFuncDecl(env *types.Env, d *ast.FuncDecl) {
	params := make([]types.Param, 0, len(d.Params))
	outer := env.Open()
	for _, p := range d.Params {
		st := c.res.SecType(p.Type)
		if st.IsZero() {
			continue
		}
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
		if env.InCurrentScope(p.Name) {
			c.diags.Errorf(p.P, "duplicate parameter %q", p.Name)
			continue
		}
		params = append(params, types.Param{Name: p.Name, Dir: dir, Type: st, CtrlPlane: ctrlPlane})
		env.Bind(p.Name, st)
	}
	unit := types.SecType{T: types.Unit{}, L: c.lat.Bottom()}
	ret := unit
	if d.Ret != nil {
		// An unresolvable return type has been reported; check the body
		// against ⟨unit, ⊥⟩, as the IFC checker does.
		if ret = c.res.SecType(d.Ret); ret.IsZero() {
			ret = unit
		}
	}
	if d.IsAction && d.Ret != nil {
		c.diags.Errorf(d.P, "action %s cannot have a return type", d.Name)
	}
	env.Bind("return", ret)
	c.checkBlock(env, d.Body)
	env.Close(outer)
	ft := &types.Func{Params: params, PCFn: c.lat.Bottom(), Ret: ret, IsAction: d.IsAction}
	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	env.Bind(d.Name, types.SecType{T: ft, L: c.lat.Bottom()})
}

func (c *checker) checkTableDecl(env *types.Env, d *ast.TableDecl) {
	for _, k := range d.Keys {
		kt := c.checkExpr(env, k.Expr)
		if !kt.IsZero() && !types.IsScalar(kt.T) {
			c.diags.Errorf(k.P, "table %s key %s must be a scalar, got %s", d.Name, k.Expr, kt.T)
		}
		if !c.res.IsMatchKind(k.MatchKind) {
			c.diags.Errorf(k.P, "unknown match kind %q for key %s", k.MatchKind, k.Expr)
		}
	}
	refs := append([]ast.ActionRef(nil), d.Actions...)
	if d.Default != nil {
		refs = append(refs, *d.Default)
	}
	for _, ref := range refs {
		at, ok := env.Lookup(ref.Name)
		if !ok {
			c.diags.Errorf(ref.P, "table %s references undeclared action %q", d.Name, ref.Name)
			continue
		}
		ft, ok := at.T.(*types.Func)
		if !ok || !ft.IsAction {
			c.diags.Errorf(ref.P, "table %s: %q is not an action", d.Name, ref.Name)
			continue
		}
		if len(ref.Args) > len(ft.Params) {
			c.diags.Errorf(ref.P, "action %s takes %d parameters but %d arguments are bound",
				ref.Name, len(ft.Params), len(ref.Args))
			continue
		}
		for i, arg := range ref.Args {
			c.checkArg(env, ft.Params[i], arg)
		}
		for _, p := range ft.Params[len(ref.Args):] {
			if !p.CtrlPlane {
				c.diags.Errorf(ref.P, "action %s parameter %q is not bound at table %s and is not control-plane-supplied",
					ref.Name, p.Name, d.Name)
			}
		}
	}
	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	env.Bind(d.Name, types.SecType{T: &types.Table{PCTbl: c.lat.Bottom()}, L: c.lat.Bottom()})
}

func (c *checker) checkBlock(env *types.Env, b *ast.BlockStmt) {
	outer := env.Open()
	for _, s := range b.Stmts {
		c.checkStmt(env, s)
	}
	env.Close(outer)
}

func (c *checker) checkStmt(env *types.Env, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(env, s)
	case *ast.AssignStmt:
		if !ast.IsLValue(s.LHS) {
			c.diags.Errorf(s.P, "%s is not assignable", s.LHS)
			return
		}
		lt := c.checkExpr(env, s.LHS)
		rt := c.checkExpr(env, s.RHS)
		if !lt.IsZero() && !rt.IsZero() {
			rt = coerceLit(rt, lt)
			if !types.BaseEqual(rt.T, lt.T) {
				c.diags.Errorf(s.P, "cannot assign %s to %s (types %s and %s differ)",
					s.RHS, s.LHS, rt.T, lt.T)
			}
		}
	case *ast.IfStmt:
		gt := c.checkExpr(env, s.Cond)
		if !gt.IsZero() {
			if _, ok := gt.T.(types.Bool); !ok {
				c.diags.Errorf(s.Cond.Pos(), "if condition must be bool, got %s", gt.T)
			}
		}
		c.checkBlock(env, s.Then)
		if s.Else != nil {
			outer := env.Open()
			c.checkStmt(env, s.Else)
			env.Close(outer)
		}
	case *ast.ExitStmt:
	case *ast.ReturnStmt:
		ret, ok := env.Lookup("return")
		if !ok {
			c.diags.Errorf(s.P, "return outside of a function body")
			return
		}
		if s.X == nil {
			if _, isUnit := ret.T.(types.Unit); !isUnit {
				c.diags.Errorf(s.P, "missing return value of type %s", ret.T)
			}
			return
		}
		xt := c.checkExpr(env, s.X)
		if !xt.IsZero() {
			xt = coerceLit(xt, ret)
			if !types.BaseEqual(xt.T, ret.T) {
				c.diags.Errorf(s.P, "cannot return %s as %s", xt.T, ret.T)
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.Call); ok {
			c.checkCall(env, call)
		} else {
			c.diags.Errorf(s.P, "expression statement must be a call")
		}
	case *ast.ApplyStmt:
		tt := c.checkExpr(env, s.Table)
		if !tt.IsZero() {
			if _, ok := tt.T.(*types.Table); !ok {
				c.diags.Errorf(s.P, "%s is not a table (type %s)", s.Table, tt.T)
			}
		}
	case *ast.DeclStmt:
		c.checkVarDecl(env, s.Decl)
	default:
		c.diags.Errorf(s.Pos(), "unsupported statement")
	}
}

func (c *checker) checkExpr(env *types.Env, e ast.Expr) types.SecType {
	switch e := e.(type) {
	case *ast.BoolLit:
		return types.SecType{T: types.Bool{}, L: c.lat.Bottom()}
	case *ast.IntLit:
		if e.HasWidth {
			return types.SecType{T: types.Bit{W: e.Width}, L: c.lat.Bottom()}
		}
		return types.SecType{T: types.Int{}, L: c.lat.Bottom()}
	case *ast.Ident:
		t, ok := env.Lookup(e.Name)
		if !ok {
			c.diags.Errorf(e.P, "undeclared variable %q", e.Name)
			return types.SecType{}
		}
		return t
	case *ast.Unary:
		xt := c.checkExpr(env, e.X)
		if xt.IsZero() {
			return xt
		}
		switch e.Op {
		case token.NOT:
			if _, ok := xt.T.(types.Bool); !ok {
				c.diags.Errorf(e.P, "operator ! needs bool, got %s", xt.T)
				return types.SecType{}
			}
		case token.BITNOT:
			if _, ok := xt.T.(types.Bit); !ok {
				c.diags.Errorf(e.P, "operator ~ needs bit<n>, got %s", xt.T)
				return types.SecType{}
			}
		}
		return xt
	case *ast.Binary:
		xt := c.checkExpr(env, e.X)
		yt := c.checkExpr(env, e.Y)
		if xt.IsZero() || yt.IsZero() {
			return types.SecType{}
		}
		rt, ok := baseBinOpType(e.Op, xt.T, yt.T)
		if !ok {
			c.diags.Errorf(e.P, "operator %s not defined on %s and %s", e.Op, xt.T, yt.T)
			return types.SecType{}
		}
		return types.SecType{T: rt, L: c.lat.Bottom()}
	case *ast.RecordLit:
		fields := make([]types.Field, 0, len(e.Fields))
		for _, f := range e.Fields {
			ft := c.checkExpr(env, f.Value)
			if ft.IsZero() {
				return types.SecType{}
			}
			fields = append(fields, types.Field{Name: f.Name, Type: ft})
		}
		return types.SecType{T: &types.Record{Fields: fields}, L: c.lat.Bottom()}
	case *ast.Member:
		xt := c.checkExpr(env, e.X)
		if xt.IsZero() {
			return xt
		}
		f, ok := types.FieldOf(xt.T, e.Field)
		if !ok {
			c.diags.Errorf(e.P, "%s (type %s) has no field %q", e.X, xt.T, e.Field)
			return types.SecType{}
		}
		return f.Type
	case *ast.Index:
		xt := c.checkExpr(env, e.X)
		if xt.IsZero() {
			return xt
		}
		st, ok := xt.T.(*types.Stack)
		if !ok {
			c.diags.Errorf(e.P, "%s (type %s) is not indexable", e.X, xt.T)
			return types.SecType{}
		}
		it := c.checkExpr(env, e.I)
		if !it.IsZero() {
			switch it.T.(type) {
			case types.Bit, types.Int:
			default:
				c.diags.Errorf(e.I.Pos(), "index must be numeric, got %s", it.T)
			}
		}
		return st.Elem
	case *ast.Call:
		return c.checkCall(env, e)
	default:
		c.diags.Errorf(e.Pos(), "unsupported expression")
		return types.SecType{}
	}
}

func (c *checker) checkCall(env *types.Env, e *ast.Call) types.SecType {
	ft0 := c.checkExpr(env, e.Fun)
	if ft0.IsZero() {
		for _, a := range e.Args {
			c.checkExpr(env, a)
		}
		return types.SecType{}
	}
	ft, ok := ft0.T.(*types.Func)
	if !ok {
		c.diags.Errorf(e.P, "%s is not callable (type %s)", e.Fun, ft0.T)
		return types.SecType{}
	}
	if len(e.Args) != len(ft.Params) {
		c.diags.Errorf(e.P, "%s takes %d arguments, got %d", e.Fun, len(ft.Params), len(e.Args))
		return ft.Ret
	}
	for i, arg := range e.Args {
		c.checkArg(env, ft.Params[i], arg)
	}
	return ft.Ret
}

func (c *checker) checkArg(env *types.Env, p types.Param, arg ast.Expr) {
	at := c.checkExpr(env, arg)
	if at.IsZero() {
		return
	}
	at = coerceLit(at, p.Type)
	if !types.BaseEqual(at.T, p.Type.T) {
		c.diags.Errorf(arg.Pos(), "argument %s: type %s does not match parameter %s %s",
			arg, at.T, p.Name, p.Type.T)
		return
	}
	if (p.Dir == types.Out || p.Dir == types.InOut) && !ast.IsLValue(arg) {
		c.diags.Errorf(arg.Pos(), "argument %s to %s parameter %s must be an assignable l-value",
			arg, p.Dir, p.Name)
	}
}

func baseBinOpType(op token.Kind, a, b types.Type) (types.Type, bool) {
	if _, ok := a.(types.Int); ok {
		if bb, ok := b.(types.Bit); ok {
			a = bb
		}
	}
	if _, ok := b.(types.Int); ok {
		if ab, ok := a.(types.Bit); ok {
			b = ab
		}
	}
	switch op {
	case token.AND, token.OR:
		_, ok1 := a.(types.Bool)
		_, ok2 := b.(types.Bool)
		if ok1 && ok2 {
			return types.Bool{}, true
		}
	case token.EQ, token.NEQ:
		if types.BaseEqual(a, b) && types.IsScalar(a) {
			return types.Bool{}, true
		}
	case token.LT, token.GT, token.LEQ, token.GEQ:
		if baseNumericPair(a, b) {
			return types.Bool{}, true
		}
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if baseNumericPair(a, b) {
			return a, true
		}
	case token.AMP, token.PIPE, token.CARET:
		ab, ok1 := a.(types.Bit)
		bb, ok2 := b.(types.Bit)
		if ok1 && ok2 && ab.W == bb.W {
			return ab, true
		}
	case token.SHL, token.SHR:
		if ab, ok := a.(types.Bit); ok {
			switch b.(type) {
			case types.Bit, types.Int:
				return ab, true
			}
		}
		if _, ok := a.(types.Int); ok {
			if _, ok := b.(types.Int); ok {
				return types.Int{}, true
			}
		}
	}
	return nil, false
}

func baseNumericPair(a, b types.Type) bool {
	switch a := a.(type) {
	case types.Int:
		switch b.(type) {
		case types.Int, types.Bit:
			return true
		}
	case types.Bit:
		switch b := b.(type) {
		case types.Int:
			return true
		case types.Bit:
			return a.W == b.W
		}
	}
	return false
}

func coerceLit(got, want types.SecType) types.SecType {
	if _, isInt := got.T.(types.Int); !isInt {
		return got
	}
	if wb, isBit := want.T.(types.Bit); isBit {
		return types.SecType{T: wb, L: got.L}
	}
	return got
}
