// Package core implements the P4BID information-flow control type system —
// the paper's primary contribution. It checks the Core P4 fragment of
// Figure 1 against the security typing rules of Figures 5 (expressions),
// 6 (statements), and 7 (declarations), over an arbitrary security lattice.
//
// # Judgements
//
// Expressions:   Γ, Δ ⊢pc exp : ⟨τ, χ⟩ goes d
// Statements:    Γ, Δ ⊢pc stmt ⊣ Γ′
// Declarations:  Γ, Δ ⊢pc decl ⊣ Γ′, Δ′
//
// The checker is algorithmic: the declarative subtyping rules T-SubType-In
// (read-only expressions may raise their label) and T-Subtype-PC are
// applied at use sites — argument passing, assignment right-hand sides,
// guards, and returns. Function and action pc_fn labels (the lower bound on
// everything the body writes, rule T-FuncDecl) are inferred as the meet of
// the body's write effects and recorded in the arrow type; table pc_tbl
// labels are chosen maximal (the meet of the member actions' pc_fn) and
// validated against the key labels per T-TblDecl.
//
// Every rejection cites the violated rule, e.g.:
//
//	cache.p4:12:5: error: assignment to <bool, low> from <bit<8>, high>:
//	high ⋢ low [T-Assign]
package core

import (
	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/lattice"
	"repro/internal/resolve"
	"repro/internal/token"
	"repro/internal/types"
)

// Result is the outcome of checking a program.
type Result struct {
	// OK reports whether the program is well-typed (no errors).
	OK bool
	// Diags holds all diagnostics, sorted by position.
	Diags []*diag.Diagnostic
	// ControlPC maps each control block name to the pc it was checked at.
	ControlPC map[string]lattice.Label
	// FuncPC maps each declared function/action (control-qualified,
	// "Ctrl.act") to its inferred pc_fn write-effect label.
	FuncPC map[string]lattice.Label
	// TablePC maps each declared table ("Ctrl.tbl") to its pc_tbl label.
	TablePC map[string]lattice.Label
}

// Err returns nil if the program typechecked, or an error aggregating the
// diagnostics.
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

// Check typechecks prog under the given security lattice with the IFC type
// system. The pc for each control block defaults to ⊥ and can be raised by
// a @pc(label) annotation on the control (Section 5.4).
func Check(prog *ast.Program, lat lattice.Lattice) *Result {
	c := newChecker(prog, lat)
	c.run()
	return c.result()
}

type checker struct {
	prog  *ast.Program
	lat   lattice.Lattice
	diags diag.List
	res   *resolve.Resolver

	controlPC map[string]lattice.Label
	funcPC    map[string]lattice.Label
	tablePC   map[string]lattice.Label

	// effect accumulates the write effect (a meet) of the statement being
	// checked; used to infer pc_fn for function declarations.
	effect lattice.Label

	curControl string
}

func newChecker(prog *ast.Program, lat lattice.Lattice) *checker {
	c := &checker{
		prog:      prog,
		lat:       lat,
		controlPC: map[string]lattice.Label{},
		funcPC:    map[string]lattice.Label{},
		tablePC:   map[string]lattice.Label{},
	}
	c.res = resolve.New(lat, &c.diags)
	c.effect = lat.Top()
	return c
}

func (c *checker) result() *Result {
	return &Result{
		OK:        !c.diags.HasErrors(),
		Diags:     c.diags.All(),
		ControlPC: c.controlPC,
		FuncPC:    c.funcPC,
		TablePC:   c.tablePC,
	}
}

func (c *checker) bot() lattice.Label { return c.lat.Bottom() }

func (c *checker) qualify(name string) string {
	if c.curControl == "" {
		return name
	}
	return c.curControl + "." + name
}

// run checks the whole program.
func (c *checker) run() {
	c.res.CollectTypeDecls(c.prog)
	env := types.NewEnv()
	for _, b := range c.res.Builtins() {
		env.Bind(b.Name, b.Type)
	}
	// Match-kind members are variables of type ⟨match_kind, ⊥⟩ (T-MatchKind).
	mkType := types.SecType{T: c.res.MatchKindType(), L: c.bot()}
	for _, m := range c.res.MatchKinds {
		env.Bind(m, mkType)
	}
	// Top-level constants.
	for _, d := range c.prog.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			c.checkVarDecl(env, c.bot(), vd)
		}
	}
	if len(c.prog.Controls) == 0 {
		c.diags.Errorf(token.Pos{}, "program has no control block")
		return
	}
	for _, ctrl := range c.prog.Controls {
		c.checkControl(env, ctrl)
	}
}

// checkControl checks one control block: parameters are bound into an
// inner scope of Γ, locals are processed in order (declarations extend Γ,
// per the declaration judgement), and the apply block is checked at the
// control's pc (⊥ unless annotated).
func (c *checker) checkControl(env *types.Env, ctrl *ast.ControlDecl) {
	c.curControl = ctrl.Name
	defer func() { c.curControl = "" }()

	pc := c.res.Label(ctrl.P, ctrl.PCLabel)
	c.controlPC[ctrl.Name] = pc

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
			c.checkVarDecl(env, pc, d)
		case *ast.FuncDecl:
			c.checkFuncDecl(env, d)
		case *ast.TableDecl:
			c.checkTableDecl(env, d)
		default:
			c.diags.Errorf(d.Pos(), "unsupported declaration in control body")
		}
	}
	c.checkBlock(env, pc, ctrl.Apply)
	env.Close(outer)
}

// ---------------------------------------------------------------------------
// Declarations (Figure 7)

// checkVarDecl implements T-VarDecl and T-VarInit: τ x and τ x := exp.
// The initializer's label must flow into the declared label (T-SubType-In),
// and its base type must unfold to the declared base type.
func (c *checker) checkVarDecl(env *types.Env, pc lattice.Label, d *ast.VarDecl) {
	declared := c.res.SecType(d.Type)
	if declared.IsZero() {
		return
	}
	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	if d.Init != nil {
		it, _ := c.checkExpr(env, pc, d.Init)
		if !it.IsZero() {
			it = c.coerceLit(d.Init, it, declared)
			if !types.Equal(it.T, declared.T) {
				c.diags.RuleErrorf(d.P, "T-VarInit",
					"cannot initialize %s %s with %s", declared, d.Name, it)
			} else if !c.lat.Leq(it.L, declared.L) {
				c.diags.RuleErrorf(d.P, "T-VarInit",
					"initializer of %s has label %s which does not flow to declared label %s (%s ⋢ %s)",
					d.Name, it.L, declared.L, it.L, declared.L)
			}
		}
	}
	env.Bind(d.Name, declared)
	// A declaration writes the new variable, so it contributes the declared
	// label to the surrounding write effect only if initialized (the fresh
	// location is unobservable until assigned, but an initializer moves
	// data). We take the conservative reading: initialized declarations
	// contribute their label.
	if d.Init != nil {
		c.addEffect(declared.L)
	}
}

// checkFuncDecl implements T-FuncDecl. The body is checked in
// Γ1 = Γ[params, return ↦ ⟨τret, χret⟩]; its write effect is accumulated
// and becomes the function's pc_fn, recorded on the arrow type.
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
		case ast.DirIn:
			dir = types.In
		case ast.DirOut:
			dir = types.Out
		case ast.DirInOut:
			dir = types.InOut
		case ast.DirNone:
			dir, ctrlPlane = types.In, true
		}
		if !d.IsAction && ctrlPlane {
			// Directionless parameters of plain functions behave as in.
			ctrlPlane = false
		}
		if env.InCurrentScope(p.Name) {
			c.diags.Errorf(p.P, "duplicate parameter %q", p.Name)
			continue
		}
		params = append(params, types.Param{Name: p.Name, Dir: dir, Type: st, CtrlPlane: ctrlPlane})
		env.Bind(p.Name, st)
	}
	ret := types.SecType{T: types.Unit{}, L: c.bot()}
	if d.Ret != nil {
		ret = c.res.SecType(d.Ret)
		if ret.IsZero() {
			ret = types.SecType{T: types.Unit{}, L: c.bot()}
		}
	}
	if d.IsAction && d.Ret != nil {
		c.diags.RuleErrorf(d.P, "T-FuncDecl", "action %s cannot have a return type", d.Name)
	}
	env.Bind("return", ret)

	// Check the body at ⊥, accumulating its write effect; the meet of the
	// effects is pc_fn. By monotonicity of the statement rules in pc
	// (validated by property tests), the body also checks at pc_fn itself.
	saved := c.effect
	c.effect = c.lat.Top()
	c.checkBlock(env, c.bot(), d.Body)
	pcFn := c.effect
	c.effect = saved
	env.Close(outer)

	ft := &types.Func{Params: params, PCFn: pcFn, Ret: ret, IsAction: d.IsAction}
	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	env.Bind(d.Name, types.SecType{T: ft, L: c.bot()})
	c.funcPC[c.qualify(d.Name)] = pcFn
}

// checkTableDecl implements T-TblDecl. The table's pc_tbl is chosen
// maximal: pc_tbl = pc_a = ⊓_j pc_fn_j over the member actions. The rule's
// side conditions are then:
//
//	χ_k ⊑ pc_tbl            for every key k (keys act as conditional guards)
//	χ_k ⊑ pc_fn_j           (implied by the above since pc_tbl ⊑ pc_fn_j)
//	bound argument types match the action's leading parameters
//	trailing unbound parameters must be control-plane (directionless)
func (c *checker) checkTableDecl(env *types.Env, d *ast.TableDecl) {
	// Key expressions and their labels.
	keyJoin := c.bot()
	for _, k := range d.Keys {
		kt, _ := c.checkExpr(env, c.bot(), k.Expr)
		if !kt.IsZero() {
			if !types.IsScalar(kt.T) {
				c.diags.RuleErrorf(k.P, "T-TblDecl",
					"table %s key %s must be a scalar, got %s", d.Name, k.Expr, kt.T)
			}
			keyJoin = c.lat.Join(keyJoin, kt.L)
		}
		if !c.res.IsMatchKind(k.MatchKind) {
			c.diags.RuleErrorf(k.P, "T-TblDecl",
				"unknown match kind %q for key %s", k.MatchKind, k.Expr)
		}
	}

	// Actions: every referenced action must be in scope with an action
	// type; pc_a is the meet of their pc_fn labels.
	pcA := c.lat.Top()
	refs := append([]ast.ActionRef(nil), d.Actions...)
	if d.Default != nil {
		refs = append(refs, *d.Default)
	}
	for _, ref := range refs {
		at, ok := env.Lookup(ref.Name)
		if !ok {
			c.diags.RuleErrorf(ref.P, "T-TblDecl", "table %s references undeclared action %q", d.Name, ref.Name)
			continue
		}
		ft, ok := at.T.(*types.Func)
		if !ok || !ft.IsAction {
			c.diags.RuleErrorf(ref.P, "T-TblDecl", "table %s: %q is not an action (type %s)", d.Name, ref.Name, at)
			continue
		}
		pcA = c.lat.Meet(pcA, ft.PCFn)
		// Bound (compile-time) arguments cover a prefix of the parameters.
		if len(ref.Args) > len(ft.Params) {
			c.diags.RuleErrorf(ref.P, "T-TblDecl",
				"action %s takes %d parameters but %d arguments are bound", ref.Name, len(ft.Params), len(ref.Args))
			continue
		}
		for i, arg := range ref.Args {
			c.checkArg(env, c.bot(), ref.Name, ft.Params[i], arg)
		}
		// Remaining parameters must be supplied by the control plane.
		for _, p := range ft.Params[len(ref.Args):] {
			if !p.CtrlPlane {
				c.diags.RuleErrorf(ref.P, "T-TblDecl",
					"action %s parameter %q (direction %s) is not bound at table %s and is not control-plane-supplied",
					ref.Name, p.Name, p.Dir, d.Name)
			}
		}
	}

	pcTbl := pcA // maximal pc_tbl with pc_tbl ⊑ pc_a
	if !c.lat.Leq(keyJoin, pcTbl) {
		c.diags.RuleErrorf(d.P, "T-TblDecl",
			"table %s matches on keys at label %s but its actions write at label %s: selecting an action leaks the key (%s ⋢ %s)",
			d.Name, keyJoin, pcTbl, keyJoin, pcTbl)
	}

	if env.InCurrentScope(d.Name) {
		c.diags.Errorf(d.P, "%q redeclared in this scope", d.Name)
	}
	env.Bind(d.Name, types.SecType{T: &types.Table{PCTbl: pcTbl}, L: c.bot()})
	c.tablePC[c.qualify(d.Name)] = pcTbl
}

// ---------------------------------------------------------------------------
// Statements (Figure 6)

// addEffect meets l into the current write-effect accumulator.
func (c *checker) addEffect(l lattice.Label) { c.effect = c.lat.Meet(c.effect, l) }

// checkBlock checks a statement block (T-Seq/T-Empty), threading Γ through
// declaration statements in an inner scope.
func (c *checker) checkBlock(env *types.Env, pc lattice.Label, b *ast.BlockStmt) {
	outer := env.Open()
	for _, s := range b.Stmts {
		c.checkStmt(env, pc, s)
	}
	env.Close(outer)
}

// checkStmt checks one statement at security context pc, extending Γ to
// Γ′ in place.
func (c *checker) checkStmt(env *types.Env, pc lattice.Label, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(env, pc, s)

	case *ast.AssignStmt:
		c.checkAssign(env, pc, s)

	case *ast.IfStmt:
		// T-Cond: guard ⟨bool, χ1⟩; both branches checked at
		// χ2 = χ1 ⊔ pc (the least valid branch context).
		gt, _ := c.checkExpr(env, pc, s.Cond)
		branchPC := pc
		if !gt.IsZero() {
			if _, ok := gt.T.(types.Bool); !ok {
				c.diags.RuleErrorf(s.Cond.Pos(), "T-Cond",
					"if condition must be bool, got %s", gt.T)
			}
			branchPC = c.lat.Join(pc, gt.L)
		}
		c.checkBlock(env, branchPC, s.Then)
		if s.Else != nil {
			outer := env.Open()
			c.checkStmt(env, branchPC, s.Else)
			env.Close(outer)
		}

	case *ast.ExitStmt:
		// T-Exit: well-typed only at pc = ⊥. Exiting is observable
		// (the packet visibly stops being processed).
		if pc != c.bot() {
			c.diags.RuleErrorf(s.P, "T-Exit",
				"exit in a security context %s above ⊥ would leak the branch taken", pc)
		}
		c.addEffect(c.bot())

	case *ast.ReturnStmt:
		// T-Return: well-typed only at pc = ⊥; the returned expression
		// must flow into the declared return label.
		if pc != c.bot() {
			c.diags.RuleErrorf(s.P, "T-Return",
				"return in a security context %s above ⊥ would leak the branch taken", pc)
		}
		c.addEffect(c.bot())
		ret, ok := env.Lookup("return")
		if !ok {
			c.diags.RuleErrorf(s.P, "T-Return", "return outside of a function body")
			return
		}
		if s.X == nil {
			if _, isUnit := ret.T.(types.Unit); !isUnit {
				c.diags.RuleErrorf(s.P, "T-Return", "missing return value of type %s", ret)
			}
			return
		}
		xt, _ := c.checkExpr(env, pc, s.X)
		if !xt.IsZero() {
			xt = c.coerceLit(s.X, xt, ret)
			if !types.Equal(xt.T, ret.T) {
				c.diags.RuleErrorf(s.P, "T-Return", "cannot return %s as %s", xt, ret)
			} else if !c.lat.Leq(xt.L, ret.L) {
				c.diags.RuleErrorf(s.P, "T-Return",
					"returned value at label %s does not flow to return label %s (%s ⋢ %s)",
					xt.L, ret.L, xt.L, ret.L)
			}
		}

	case *ast.ExprStmt:
		// T-FnCallStmt: the expression must be a well-typed call.
		call, ok := s.X.(*ast.Call)
		if !ok {
			c.diags.Errorf(s.P, "expression statement must be a call")
			return
		}
		c.checkCall(env, pc, call)

	case *ast.ApplyStmt:
		// T-TblCall: exp : ⟨table(pc_tbl), ⊥⟩ and pc ⊑ pc_tbl.
		tt, _ := c.checkExpr(env, pc, s.Table)
		if tt.IsZero() {
			return
		}
		tbl, ok := tt.T.(*types.Table)
		if !ok {
			c.diags.RuleErrorf(s.P, "T-TblCall", "%s is not a table (type %s)", s.Table, tt)
			return
		}
		if !c.lat.Leq(pc, tbl.PCTbl) {
			c.diags.RuleErrorf(s.P, "T-TblCall",
				"table %s (pc_tbl = %s) applied in a higher security context %s: the branch taken would leak into the table's writes (%s ⋢ %s)",
				s.Table, tbl.PCTbl, pc, pc, tbl.PCTbl)
		}
		c.addEffect(tbl.PCTbl)

	case *ast.DeclStmt:
		c.checkVarDecl(env, pc, s.Decl)

	default:
		c.diags.Errorf(s.Pos(), "unsupported statement")
	}
}

// checkAssign implements T-Assign:
//
//	Γ, Δ ⊢pc exp1 : ⟨τ, χ1⟩ goes inout   Γ, Δ ⊢pc exp2 : ⟨τ, χ2⟩
//	χ2 ⊑ χ1   pc ⊑ χ1
func (c *checker) checkAssign(env *types.Env, pc lattice.Label, s *ast.AssignStmt) {
	if !ast.IsLValue(s.LHS) {
		c.diags.RuleErrorf(s.P, "T-Assign", "%s is not assignable", s.LHS)
		return
	}
	lt, dir := c.checkExpr(env, pc, s.LHS)
	if lt.IsZero() {
		// Still check the RHS for secondary errors.
		c.checkExpr(env, pc, s.RHS)
		return
	}
	if dir != types.InOut {
		c.diags.RuleErrorf(s.P, "T-Assign", "%s is read-only and cannot be assigned", s.LHS)
		return
	}
	rt, _ := c.checkExpr(env, pc, s.RHS)
	if rt.IsZero() {
		return
	}
	rt = c.coerceLit(s.RHS, rt, lt)
	if !types.Equal(rt.T, lt.T) {
		c.diags.RuleErrorf(s.P, "T-Assign",
			"cannot assign %s to %s (types %s and %s differ)", s.RHS, s.LHS, rt.T, lt.T)
		return
	}
	c.addEffect(lt.L)
	if !c.lat.Leq(rt.L, lt.L) {
		c.diags.RuleErrorf(s.P, "T-Assign",
			"explicit flow: %s (label %s) assigned to %s (label %s): %s ⋢ %s",
			s.RHS, rt.L, s.LHS, lt.L, rt.L, lt.L)
		return
	}
	if !c.lat.Leq(pc, lt.L) {
		c.diags.RuleErrorf(s.P, "T-Assign",
			"implicit flow: assignment to %s (label %s) under security context %s: %s ⋢ %s",
			s.LHS, lt.L, pc, pc, lt.L)
	}
}

// ---------------------------------------------------------------------------
// Expressions (Figure 5)

// zeroSec is returned for ill-typed subexpressions; callers skip dependent
// checks when they see it, avoiding error cascades.
var zeroSec types.SecType

// checkExpr implements the expression judgement, returning the security
// type and the direction the expression "goes".
func (c *checker) checkExpr(env *types.Env, pc lattice.Label, e ast.Expr) (types.SecType, types.Dir) {
	switch e := e.(type) {
	case *ast.BoolLit: // T-Bool
		return types.SecType{T: types.Bool{}, L: c.bot()}, types.In

	case *ast.IntLit: // T-Int
		if e.HasWidth {
			return types.SecType{T: types.Bit{W: e.Width}, L: c.bot()}, types.In
		}
		return types.SecType{T: types.Int{}, L: c.bot()}, types.In

	case *ast.Ident: // T-Var
		t, ok := env.Lookup(e.Name)
		if !ok {
			c.diags.RuleErrorf(e.P, "T-Var", "undeclared variable %q", e.Name)
			return zeroSec, types.In
		}
		return t, types.InOut

	case *ast.Unary:
		return c.checkUnary(env, pc, e)

	case *ast.Binary:
		return c.checkBinary(env, pc, e)

	case *ast.RecordLit: // T-Rec
		fields := make([]types.Field, 0, len(e.Fields))
		seen := map[string]bool{}
		for _, f := range e.Fields {
			if seen[f.Name] {
				c.diags.RuleErrorf(f.P, "T-Rec", "duplicate field %q in record literal", f.Name)
				continue
			}
			seen[f.Name] = true
			ft, _ := c.checkExpr(env, pc, f.Value)
			if ft.IsZero() {
				return zeroSec, types.In
			}
			fields = append(fields, types.Field{Name: f.Name, Type: ft})
		}
		return types.SecType{T: &types.Record{Fields: fields}, L: c.bot()}, types.In

	case *ast.Member: // T-MemRec / T-MemHdr
		xt, dir := c.checkExpr(env, pc, e.X)
		if xt.IsZero() {
			return zeroSec, types.In
		}
		f, ok := types.FieldOf(xt.T, e.Field)
		if !ok {
			c.diags.RuleErrorf(e.P, "T-MemRec", "%s (type %s) has no field %q", e.X, xt.T, e.Field)
			return zeroSec, types.In
		}
		return f.Type, dir

	case *ast.Index: // T-Index
		xt, dir := c.checkExpr(env, pc, e.X)
		if xt.IsZero() {
			return zeroSec, types.In
		}
		st, ok := xt.T.(*types.Stack)
		if !ok {
			c.diags.RuleErrorf(e.P, "T-Index", "%s (type %s) is not indexable", e.X, xt.T)
			return zeroSec, types.In
		}
		it, _ := c.checkExpr(env, pc, e.I)
		if !it.IsZero() {
			switch it.T.(type) {
			case types.Bit, types.Int:
			default:
				c.diags.RuleErrorf(e.I.Pos(), "T-Index", "index must be numeric, got %s", it.T)
			}
			// χ2 ⊑ χ1: a secret index into a public-labelled stack would
			// leak which element was read/written.
			if !c.lat.Leq(it.L, st.Elem.L) {
				c.diags.RuleErrorf(e.I.Pos(), "T-Index",
					"index at label %s selects into stack with element label %s (%s ⋢ %s)",
					it.L, st.Elem.L, it.L, st.Elem.L)
			}
		}
		return st.Elem, dir

	case *ast.Call: // T-Call
		return c.checkCall(env, pc, e)

	default:
		c.diags.Errorf(e.Pos(), "unsupported expression")
		return zeroSec, types.In
	}
}

// checkUnary types !, -, ~. The result keeps the operand's label and
// goes in.
func (c *checker) checkUnary(env *types.Env, pc lattice.Label, e *ast.Unary) (types.SecType, types.Dir) {
	xt, _ := c.checkExpr(env, pc, e.X)
	if xt.IsZero() {
		return zeroSec, types.In
	}
	switch e.Op {
	case token.NOT:
		if _, ok := xt.T.(types.Bool); !ok {
			c.diags.RuleErrorf(e.P, "T-BinOp", "operator ! needs bool, got %s", xt.T)
			return zeroSec, types.In
		}
	case token.MINUS:
		switch xt.T.(type) {
		case types.Int, types.Bit:
		default:
			c.diags.RuleErrorf(e.P, "T-BinOp", "operator - needs a numeric type, got %s", xt.T)
			return zeroSec, types.In
		}
	case token.BITNOT:
		if _, ok := xt.T.(types.Bit); !ok {
			c.diags.RuleErrorf(e.P, "T-BinOp", "operator ~ needs bit<n>, got %s", xt.T)
			return zeroSec, types.In
		}
	}
	return types.SecType{T: xt.T, L: xt.L}, types.In
}

// checkBinary implements T-BinOp with the typing oracle T(Δ; ⊕; ρ1; ρ2).
// The result's label is χ1 ⊔ χ2 (the least χ′ with χ1 ⊑ χ′ and χ2 ⊑ χ′).
func (c *checker) checkBinary(env *types.Env, pc lattice.Label, e *ast.Binary) (types.SecType, types.Dir) {
	xt, _ := c.checkExpr(env, pc, e.X)
	yt, _ := c.checkExpr(env, pc, e.Y)
	if xt.IsZero() || yt.IsZero() {
		return zeroSec, types.In
	}
	rt, ok := binOpType(e.Op, xt.T, yt.T)
	if !ok {
		c.diags.RuleErrorf(e.P, "T-BinOp",
			"operator %s not defined on %s and %s", e.Op, xt.T, yt.T)
		return zeroSec, types.In
	}
	return types.SecType{T: rt, L: c.lat.Join(xt.L, yt.L)}, types.In
}

// binOpType is the typing oracle T for binary operators. Arbitrary-width
// int literals coerce to the other operand's bit type.
func binOpType(op token.Kind, a, b types.Type) (types.Type, bool) {
	// Coerce int with bit<n>.
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
		return nil, false
	case token.EQ, token.NEQ:
		if types.Equal(types.Strip(a), types.Strip(b)) && types.IsScalar(a) {
			return types.Bool{}, true
		}
		return nil, false
	case token.LT, token.GT, token.LEQ, token.GEQ:
		if numericPair(a, b) {
			return types.Bool{}, true
		}
		return nil, false
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if numericPair(a, b) {
			return a, true
		}
		return nil, false
	case token.AMP, token.PIPE, token.CARET:
		ab, ok1 := a.(types.Bit)
		bb, ok2 := b.(types.Bit)
		if ok1 && ok2 && ab.W == bb.W {
			return ab, true
		}
		return nil, false
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
		return nil, false
	default:
		return nil, false
	}
}

func numericPair(a, b types.Type) bool {
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

// coerceLit adapts the type of an int literal (or int-typed expression)
// to the expected bit type, mirroring P4's implicit cast from arbitrary-
// precision int constants.
func (c *checker) coerceLit(e ast.Expr, got, want types.SecType) types.SecType {
	if _, isInt := got.T.(types.Int); !isInt {
		return got
	}
	if wb, isBit := want.T.(types.Bit); isBit {
		_ = e
		return types.SecType{T: wb, L: got.L}
	}
	return got
}

// checkCall implements T-Call:
//
//	Γ, Δ ⊢pc exp1 : ⟨d ⟨τi, χi⟩ --pc_fn--> ⟨τret, χret⟩, ⊥⟩
//	Γ, Δ ⊢pc exp2 : ⟨τi, χi⟩ goes d          pc ⊑ pc_fn
//
// in arguments may raise their label to the parameter's (T-SubType-In);
// inout arguments must be l-values going inout with exactly the parameter's
// label — subtyping an inout argument is unsound (Section 4.2's
// write_to_high example).
func (c *checker) checkCall(env *types.Env, pc lattice.Label, e *ast.Call) (types.SecType, types.Dir) {
	ft0, _ := c.checkExpr(env, pc, e.Fun)
	if ft0.IsZero() {
		for _, a := range e.Args {
			c.checkExpr(env, pc, a)
		}
		return zeroSec, types.In
	}
	ft, ok := ft0.T.(*types.Func)
	if !ok {
		c.diags.RuleErrorf(e.P, "T-Call", "%s is not callable (type %s)", e.Fun, ft0)
		return zeroSec, types.In
	}
	if len(e.Args) != len(ft.Params) {
		c.diags.RuleErrorf(e.P, "T-Call",
			"%s takes %d arguments, got %d", e.Fun, len(ft.Params), len(e.Args))
		return ft.Ret, types.In
	}
	for i, arg := range e.Args {
		c.checkArg(env, pc, e.Fun, ft.Params[i], arg)
	}
	if !c.lat.Leq(pc, ft.PCFn) {
		c.diags.RuleErrorf(e.P, "T-Call",
			"%s writes at label %s (pc_fn) but is called in a higher security context %s: calling it would leak the branch taken (%s ⋢ %s)",
			e.Fun, ft.PCFn, pc, pc, ft.PCFn)
	}
	c.addEffect(ft.PCFn)
	return ft.Ret, types.In
}

// checkArg checks one argument against one parameter. fn names the callee
// (the call's function expression, or the action's name at a table) and is
// only formatted when a diagnostic fires.
func (c *checker) checkArg(env *types.Env, pc lattice.Label, fn any, p types.Param, arg ast.Expr) {
	at, dir := c.checkExpr(env, pc, arg)
	if at.IsZero() {
		return
	}
	at = c.coerceLit(arg, at, p.Type)
	switch p.Dir {
	case types.In:
		if !types.Equal(at.T, p.Type.T) {
			c.diags.RuleErrorf(arg.Pos(), "T-Call",
				"argument %s to %s: type %s does not match parameter %s %s", arg, fn, at.T, p.Name, p.Type.T)
			return
		}
		// T-SubType-In: a read-only use may raise its label.
		if !c.lat.Leq(at.L, p.Type.L) {
			c.diags.RuleErrorf(arg.Pos(), "T-Call",
				"argument %s at label %s does not flow to in-parameter %s at label %s (%s ⋢ %s)",
				arg, at.L, p.Name, p.Type.L, at.L, p.Type.L)
		}
	case types.Out, types.InOut:
		if !ast.IsLValue(arg) || dir != types.InOut {
			c.diags.RuleErrorf(arg.Pos(), "T-Call",
				"argument %s to %s parameter %s must be an assignable l-value", arg, p.Dir, p.Name)
			return
		}
		if !types.Equal(at.T, p.Type.T) {
			c.diags.RuleErrorf(arg.Pos(), "T-Call",
				"argument %s to %s: type %s does not match parameter %s %s", arg, fn, at.T, p.Name, p.Type.T)
			return
		}
		// No subtyping for inout: labels must match exactly
		// (T-SubType-In applies only to expressions going in).
		if at.L != p.Type.L {
			c.diags.RuleErrorf(arg.Pos(), "T-Call",
				"%s argument %s has label %s but parameter %s has label %s: inout arguments cannot change label",
				p.Dir, arg, at.L, p.Name, p.Type.L)
		}
		// Writing back through the parameter is a write effect at the
		// parameter's label.
		c.addEffect(p.Type.L)
	}
}
