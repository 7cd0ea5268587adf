// Compilation of a resolved program into a closure tree.
//
// Compile lowers a *ast.Program into pre-bound evaluator closures: every
// name reference becomes a (region, slot) index into flat value frames,
// every field access whose base has a statically known record or header
// type becomes a field position, and every statement and expression
// becomes a Go closure over those slots. Error messages keep the source
// position captured at compile time and are formatted only when the error
// happens. Running a trial on the resulting Machine costs input-state
// setup plus closure invocation — no AST walking, no map-based environment
// or store lookups, no field-name scans, and no per-node allocation beyond
// the values the program itself constructs.
//
// The compiled form is observationally identical to the tree-walking
// interpreter in interp.go: same outputs, same signals, and byte-identical
// error strings (the NI harness and the fuzz campaign classify findings by
// those strings, so equivalence is load-bearing, not cosmetic). Programs the
// compiler cannot handle make Compile return an error and callers fall back
// to the interpreter.
//
// Field positions rest on one invariant: every record and header value in
// a slot of declared type T has T's fields in T's order. Every value
// builder (Zero, RandomFrom, the exhaustive and NI samplers) follows type
// order, and the base checker's record and header type equality is
// order-sensitive, so assignments and calls in a base-checked program keep
// the invariant. RunIndexed states it as a precondition for inputs from
// outside the program, which their builder checks with FieldOrderMismatch
// (the NI harness does, for values its FixInputs hook edits). An access whose
// base type is unknown (a call result, say) or whose position falls outside
// the value's fields scans by name, exactly as the interpreter does.
//
// A Compiled program is immutable and safe for concurrent use; each Machine
// is single-threaded state (frames, fuel, scratch stacks) built on top of
// it.
package eval

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/diag"
	"repro/internal/resolve"
	"repro/internal/token"
	"repro/internal/types"
)

// cExpr is a compiled expression: evaluate against the machine state.
type cExpr func(*Machine) (Value, error)

// cStmt is a compiled statement.
type cStmt func(*Machine) (Signal, error)

// Storage regions a compiled name reference can address.
const (
	rGlobal = iota // program-level constants, builtins, match kinds
	rCtrl          // the running control's frame (params + locals)
	rLocal         // the innermost call frame (function params + locals)
	rReg           // persistent register storage (survives runs until Reset)
)

// varRef is a resolved name: a region plus a slot index within it.
type varRef struct {
	region uint8
	slot   int
}

// cParam is a compiled control parameter.
type cParam struct {
	name string
	st   types.SecType
	zero Value
}

// cControl is a compiled control block. Slots [0, len(params)) of its frame
// hold the parameters (and, at the end of a run, the outputs).
type cControl struct {
	name      string
	params    []cParam
	frameSize int
	prologue  []func(*Machine) error // locals: var inits, closure/table binds
	body      []cStmt                // the apply block
}

// cClos is a compiled function/action closure value. It is immutable and
// shared by every Machine of its Compiled program; ValueEqual and the
// interpreter compare closures by identity, which pointer equality mirrors.
type cClos struct {
	name      string
	fn        *types.Func
	frameSize int
	body      []cStmt
	zeros     []Value // per-param Zero(type) templates (out params)
}

func (*cClos) valueMarker()     {}
func (v *cClos) String() string { return "clos(" + v.name + ")" }

// cActRef is a compiled table action reference: the action's resolved slot
// plus its compile-time-bound argument plans.
type cActRef struct {
	name     string
	ref      varRef
	resolved bool
	args     []*cArg
}

// cTable is a compiled table value.
type cTable struct {
	name      string
	keys      []cExpr
	actions   []cActRef
	deflt     *cActRef
	defltName string
	missCall  *controlplane.ActionCall // static miss-with-source-default call
}

func (*cTable) valueMarker()     {}
func (v *cTable) String() string { return "table(" + v.name + ")" }

// cArg is a compiled call argument: the expression (for in-parameters) and,
// when the expression has l-value shape, the compiled l-value (for out and
// inout parameters). notLV is the subexpression that lacks l-value shape
// when the argument has none, for the interpreter's "is not an l-value"
// error should a parameter need one.
type cArg struct {
	expr  cExpr
	lv    *cLValue
	notLV ast.Expr
}

// cAccessor is one step of an l-value path: a field projection or an index
// expression (evaluated at l-value-evaluation time, as in Appendix F). A
// field projection carries the field's position in its base's static type,
// or -1 when the compiler does not know that type; the name is kept for
// the by-name fallback and for error messages.
type cAccessor struct {
	field  string
	pos    int       // field position in the base's static type, -1 if unknown
	idx    cExpr     // nil for field accessors
	idxPos token.Pos // index node position, for error messages
}

// cLValue is a compiled l-value: resolved base plus accessor path. baseErr
// is set when the base name is not in scope — the interpreter reports that
// only at read/write time (after index evaluation), so the compiled form
// defers it the same way.
type cLValue struct {
	baseErr string
	ref     varRef
	pos     token.Pos // base identifier position, for error messages
	path    []cAccessor
}

// tableInfo records a table declaration for control-plane registration.
type tableInfo struct {
	name  string
	kinds []string
}

// Compiled is a program lowered to closures. It is immutable after Compile
// and safe to share across goroutines; per-run state lives in Machine.
type Compiled struct {
	controls []*cControl
	globals  []Value // evaluated top-level state template
	regZero  []Value // zero templates for register slots
	tables   []tableInfo
}

// compiler carries the compile-time scope chain and frame allocators.
type compiler struct {
	res   *resolve.Resolver
	diags diag.List
	err   error

	sc          *cscope
	frame       *int  // slot allocator of the frame being compiled
	frameRegion uint8 // region those slots live in (rCtrl or rLocal)
	regZero     []Value
}

// cscope is the compile-time scope chain mirroring Env.
type cscope struct {
	parent *cscope
	names  map[string]binding
}

// binding is a name's slot plus its declared type (nil for builtins, match
// kinds, closures and tables, whose fields are never projected).
type binding struct {
	ref varRef
	t   types.Type
}

func (s *cscope) child() *cscope { return &cscope{parent: s, names: map[string]binding{}} }

func (s *cscope) bind(name string, r varRef, t types.Type) { s.names[name] = binding{r, t} }

func (s *cscope) lookup(name string) (binding, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.names[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (c *compiler) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// check records the first resolver diagnostic as the compile error.
func (c *compiler) check() bool {
	if err := c.diags.Err(); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// Compile lowers prog into a closure tree. Top-level constants are
// evaluated now (they are deterministic), so NewMachine only copies a
// template. An error means the program uses something the compiler does not
// handle (or is ill-formed in a way the interpreter would also reject at
// load time); callers should fall back to the tree-walking interpreter.
func Compile(prog *ast.Program) (*Compiled, error) {
	c := &compiler{}
	c.res = resolve.New(labelBlind, &c.diags)
	c.res.CollectTypeDecls(prog)
	if err := c.diags.Err(); err != nil {
		return nil, err
	}
	out := &Compiled{}

	// Globals: builtins, match kinds, then top-level vars in declaration
	// order, exactly as New binds them. Inits are evaluated on a bootstrap
	// machine; store writes during evaluation land in the template.
	gsc := &cscope{names: map[string]binding{}}
	var globals []Value
	bindGlobal := func(name string, v Value, t types.Type) {
		gsc.bind(name, varRef{rGlobal, len(globals)}, t)
		globals = append(globals, v)
	}
	for _, name := range []string{"mark_to_drop", "NoAction"} {
		bindGlobal(name, BuiltinVal(name), nil)
	}
	for _, m := range c.res.MatchKinds {
		bindGlobal(m, MatchKindVal(m), nil)
	}
	boot := &Machine{fuel: DefaultFuel}
	for _, d := range prog.Decls {
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			continue
		}
		st := c.res.SecType(vd.Type)
		if !c.check() {
			return nil, c.err
		}
		var v Value
		if vd.Init != nil {
			c.sc = gsc
			init := c.compileExpr(vd.Init)
			if c.err != nil {
				return nil, c.err
			}
			boot.globals = globals
			iv, err := init(boot)
			if err != nil {
				return nil, err
			}
			globals = boot.globals
			v = coerceValue(iv, st.T)
		} else {
			v = Zero(st.T)
		}
		bindGlobal(vd.Name, v, st.T)
	}
	out.globals = globals

	// Table registrations, mirroring New's declaration pass.
	for _, ctrl := range prog.Controls {
		for _, d := range ctrl.Locals {
			if td, ok := d.(*ast.TableDecl); ok {
				kinds := make([]string, len(td.Keys))
				for i, k := range td.Keys {
					kinds[i] = k.MatchKind
				}
				out.tables = append(out.tables, tableInfo{td.Name, kinds})
			}
		}
	}

	for _, ctrl := range prog.Controls {
		cc, err := c.compileControl(ctrl, gsc)
		if err != nil {
			return nil, err
		}
		out.controls = append(out.controls, cc)
	}
	out.regZero = c.regZero
	return out, nil
}

// ControlIndex returns the index of the named control ("" = the first), or
// -1 if the program has no such control.
func (c *Compiled) ControlIndex(name string) int {
	for i, ctrl := range c.controls {
		if ctrl.name == name || name == "" {
			return i
		}
	}
	return -1
}

// ParamNames returns the declared parameter names of a control, in order
// (duplicates preserved).
func (c *Compiled) ParamNames(idx int) []string {
	ps := c.controls[idx].params
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.name
	}
	return out
}

// compileControl lowers one control. Parameter and local slots live in the
// control frame; var-decl inits compile against the progressive scope (they
// see only earlier bindings, as the interpreter's locals loop does), while
// function bodies and table keys/arguments compile against the full control
// scope (the interpreter's closures capture the mutable control env, so by
// call time every local is visible).
func (c *compiler) compileControl(ctrl *ast.ControlDecl, gsc *cscope) (*cControl, error) {
	cc := &cControl{name: ctrl.Name}
	sc := gsc.child()
	size := 0
	for _, p := range ctrl.Params {
		st := c.res.SecType(p.Type)
		if !c.check() {
			return nil, c.err
		}
		sc.bind(p.Name, varRef{rCtrl, size}, st.T)
		cc.params = append(cc.params, cParam{name: p.Name, st: st, zero: Zero(st.T)})
		size++
	}
	var deferred []func() error
	for _, d := range ctrl.Locals {
		switch d := d.(type) {
		case *ast.VarDecl:
			if d.Register {
				st := c.res.SecType(d.Type)
				if !c.check() {
					return nil, c.err
				}
				sc.bind(d.Name, varRef{rReg, len(c.regZero)}, st.T)
				c.regZero = append(c.regZero, Zero(st.T))
				continue
			}
			st := c.res.SecType(d.Type)
			if !c.check() {
				return nil, c.err
			}
			var init cExpr
			if d.Init != nil {
				c.sc = sc
				c.frame, c.frameRegion = &size, rCtrl
				init = c.compileExpr(d.Init)
			}
			slot := size
			size++
			if init != nil {
				t := st.T
				cc.prologue = append(cc.prologue, func(m *Machine) error {
					iv, err := init(m)
					if err != nil {
						return err
					}
					m.ctrl[slot] = own(coerceValue(iv, t))
					return nil
				})
			} else {
				zero := Zero(st.T)
				cc.prologue = append(cc.prologue, func(m *Machine) error {
					m.ctrl[slot] = Copy(zero)
					return nil
				})
			}
			sc.bind(d.Name, varRef{rCtrl, slot}, st.T)
		case *ast.FuncDecl:
			fn := c.funcType(d)
			if !c.check() {
				return nil, c.err
			}
			clos := &cClos{name: d.Name, fn: fn}
			clos.zeros = make([]Value, len(fn.Params))
			for i, p := range fn.Params {
				clos.zeros[i] = Zero(p.Type.T)
			}
			slot := size
			size++
			cc.prologue = append(cc.prologue, func(m *Machine) error {
				m.ctrl[slot] = clos
				return nil
			})
			sc.bind(d.Name, varRef{rCtrl, slot}, nil)
			body := d.Body
			deferred = append(deferred, func() error { return c.compileFuncBody(clos, body, sc) })
		case *ast.TableDecl:
			tv := &cTable{name: d.Name}
			slot := size
			size++
			cc.prologue = append(cc.prologue, func(m *Machine) error {
				m.ctrl[slot] = tv
				return nil
			})
			sc.bind(d.Name, varRef{rCtrl, slot}, nil)
			decl := d
			deferred = append(deferred, func() error { return c.compileTable(tv, decl, sc) })
		default:
			return nil, fmt.Errorf("%s: unsupported declaration in control body", d.Pos())
		}
	}
	c.sc = sc
	c.frame, c.frameRegion = &size, rCtrl
	cc.body = c.compileBlock(ctrl.Apply)
	for _, fn := range deferred {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	cc.frameSize = size
	return cc, nil
}

// funcType mirrors Interp.funcType.
func (c *compiler) funcType(d *ast.FuncDecl) *types.Func {
	params := make([]types.Param, 0, len(d.Params))
	for _, p := range d.Params {
		st := c.res.SecType(p.Type)
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
		ret = c.res.SecType(d.Ret)
	}
	return &types.Func{Params: params, Ret: ret, IsAction: d.IsAction}
}

// compileFuncBody lowers a function body against the full control scope;
// parameters occupy the head of a fresh local frame.
func (c *compiler) compileFuncBody(clos *cClos, body *ast.BlockStmt, ctrlScope *cscope) error {
	sc := ctrlScope.child()
	size := 0
	for _, p := range clos.fn.Params {
		sc.bind(p.Name, varRef{rLocal, size}, p.Type.T)
		size++
	}
	c.sc = sc
	c.frame, c.frameRegion = &size, rLocal
	clos.body = c.compileBlock(body)
	clos.frameSize = size
	return c.err
}

// compileTable lowers table keys and action references against the full
// control scope (the interpreter evaluates them in the table's captured
// environment at apply time, when every control local is bound).
func (c *compiler) compileTable(tv *cTable, d *ast.TableDecl, ctrlScope *cscope) error {
	c.sc = ctrlScope
	for _, k := range d.Keys {
		tv.keys = append(tv.keys, c.compileExpr(k.Expr))
	}
	mk := func(ref *ast.ActionRef) cActRef {
		ar := cActRef{name: ref.Name}
		if b, ok := ctrlScope.lookup(ref.Name); ok {
			ar.ref, ar.resolved = b.ref, true
		}
		for _, a := range ref.Args {
			ar.args = append(ar.args, c.compileArg(a))
		}
		return ar
	}
	for i := range d.Actions {
		tv.actions = append(tv.actions, mk(&d.Actions[i]))
	}
	if d.Default != nil {
		dd := mk(d.Default)
		tv.deflt = &dd
		tv.defltName = d.Default.Name
		tv.missCall = &controlplane.ActionCall{Action: d.Default.Name}
	}
	return c.err
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) compileBlock(b *ast.BlockStmt) []cStmt {
	saved := c.sc
	c.sc = saved.child()
	out := make([]cStmt, len(b.Stmts))
	for i, s := range b.Stmts {
		out[i] = c.compileStmt(s)
	}
	c.sc = saved
	return out
}

// at formats a source position as an error-message prefix ("file:l:c: ").
// Compiled code captures positions and formats them only when an error
// actually happens.
func at(p token.Pos) string { return p.String() + ": " }

// outOfFuel is the error every compiled statement's preamble returns when
// the per-statement fuel decrement, mirroring evalStmt's, runs out.
func outOfFuel(p token.Pos) error { return errors.New(at(p) + "evaluation fuel exhausted") }

func (c *compiler) compileStmt(s ast.Stmt) cStmt {
	fuel := s.Pos()
	switch s := s.(type) {
	case *ast.BlockStmt:
		body := c.compileBlock(s)
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return runBody(m, body)
		}

	case *ast.AssignStmt:
		lv, _, notLV := c.compileLValue(s.LHS)
		rhs := c.compileExpr(s.RHS)
		if lv == nil {
			return func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{}, notLValue(notLV)
			}
		}
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			ib, err := lv.evalIdx(m)
			if err != nil {
				return Signal{}, err
			}
			rv, err := rhs(m)
			if err == nil {
				err = lv.write(m, ib, rv)
			}
			m.idxs = m.idxs[:ib]
			if err != nil {
				return Signal{}, err
			}
			return Signal{Kind: SigCont}, nil
		}

	case *ast.IfStmt:
		cond := c.compileExpr(s.Cond)
		then := c.compileBlock(s.Then)
		var els cStmt
		if s.Else != nil {
			saved := c.sc
			c.sc = saved.child()
			els = c.compileStmt(s.Else)
			c.sc = saved
		}
		pos := s.P
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			cv, err := cond(m)
			if err != nil {
				return Signal{}, err
			}
			b, ok := cv.(BoolVal)
			if !ok {
				return Signal{}, fmt.Errorf("%sif condition evaluated to %s, not bool", at(pos), cv)
			}
			if bool(b) {
				return runBody(m, then)
			}
			if els != nil {
				return els(m)
			}
			return Signal{Kind: SigCont}, nil
		}

	case *ast.ExitStmt:
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return Signal{Kind: SigExit}, nil
		}

	case *ast.ReturnStmt:
		if s.X == nil {
			return func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{Kind: SigReturn, Val: UnitVal{}}, nil
			}
		}
		x := c.compileExpr(s.X)
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			v, err := x(m)
			if err != nil {
				return Signal{}, err
			}
			return Signal{Kind: SigReturn, Val: v}, nil
		}

	case *ast.ExprStmt:
		call, ok := s.X.(*ast.Call)
		if !ok {
			msg := s.P.String() + ": expression statement is not a call"
			return func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{}, errors.New(msg)
			}
		}
		fun := c.compileExpr(call.Fun)
		args := c.compileArgs(call.Args)
		pos := call.P
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			fv, err := fun(m)
			if err != nil {
				return Signal{}, err
			}
			_, sig, err := m.invoke(pos, fv, args, nil)
			if err != nil {
				return Signal{}, err
			}
			if sig.Kind == SigExit {
				return sig, nil
			}
			return Signal{Kind: SigCont}, nil
		}

	case *ast.ApplyStmt:
		tbl := c.compileExpr(s.Table)
		pos := s.P
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			tv0, err := tbl(m)
			if err != nil {
				return Signal{}, err
			}
			tv, ok := tv0.(*cTable)
			if !ok {
				return Signal{}, fmt.Errorf("%s: %s is not a table", pos, tv0)
			}
			return m.applyTable(pos, tv)
		}

	case *ast.DeclStmt:
		return c.compileDeclStmt(s, fuel)

	default:
		msg := s.Pos().String() + ": unsupported statement"
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return Signal{}, errors.New(msg)
		}
	}
}

// compileDeclStmt lowers a local variable declaration: evaluate the init in
// the progressive scope, then bind a fresh slot in the enclosing frame. The
// Register and Const flags are ignored in statement position, exactly as
// evalVarDecl ignores them.
func (c *compiler) compileDeclStmt(s *ast.DeclStmt, fuel token.Pos) cStmt {
	d := s.Decl
	st := c.res.SecType(d.Type)
	if !c.check() {
		return func(m *Machine) (Signal, error) { return Signal{}, c.err }
	}
	var init cExpr
	if d.Init != nil {
		init = c.compileExpr(d.Init)
	}
	slot := *c.frame
	*c.frame = slot + 1
	ref := varRef{c.frameRegion, slot}
	// Bind after compiling the init so the init sees the outer binding, as
	// the interpreter's evaluate-then-bind order does.
	c.sc.bind(d.Name, ref, st.T)
	t := st.T
	if init != nil {
		return func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			iv, err := init(m)
			if err != nil {
				return Signal{}, err
			}
			m.set(ref, own(coerceValue(iv, t)))
			return Signal{Kind: SigCont}, nil
		}
	}
	zero := Zero(st.T)
	return func(m *Machine) (Signal, error) {
		m.fuel--
		if m.fuel <= 0 {
			return Signal{}, outOfFuel(fuel)
		}
		m.set(ref, Copy(zero))
		return Signal{Kind: SigCont}, nil
	}
}

// ---------------------------------------------------------------------------
// L-values

// compileLValue returns the compiled l-value and its static type (nil when
// unknown), or nil plus the subexpression that lacks l-value shape, which
// notLValue turns into the interpreter's error. An out-of-scope base still
// compiles (the interpreter reports it only at read/write time, after index
// evaluation).
func (c *compiler) compileLValue(e ast.Expr) (*cLValue, types.Type, ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		lv := &cLValue{pos: e.P}
		b, ok := c.sc.lookup(e.Name)
		if ok {
			lv.ref = b.ref
		} else {
			lv.baseErr = e.P.String() + ": undeclared variable " + strconv.Quote(e.Name)
		}
		return lv, b.t, nil
	case *ast.Member:
		lv, t, bad := c.compileLValue(e.X)
		if lv == nil {
			return nil, nil, bad
		}
		pos, ft := fieldPos(t, e.Field)
		lv.path = append(lv.path, cAccessor{field: e.Field, pos: pos})
		return lv, ft, nil
	case *ast.Index:
		lv, t, bad := c.compileLValue(e.X)
		if lv == nil {
			return nil, nil, bad
		}
		idx := c.compileExpr(e.I)
		lv.path = append(lv.path, cAccessor{idx: idx, idxPos: e.P})
		return lv, elemType(t), nil
	default:
		return nil, nil, e
	}
}

// notLValue is the interpreter's error for an expression without l-value
// shape where one is needed.
func notLValue(e ast.Expr) error { return fmt.Errorf("%s: %s is not an l-value", e.Pos(), e) }

// fieldPos resolves a projection of field from a base of static type t
// (nil when unknown): the field's position and static type when t is a
// record or header type that has the field, else -1 and nil.
func fieldPos(t types.Type, field string) (int, types.Type) {
	for i, f := range types.Fields(t) {
		if f.Name == field {
			return i, f.Type.T
		}
	}
	return -1, nil
}

// elemType is the element type of a stack of static type t, nil when t is
// unknown or not a stack.
func elemType(t types.Type) types.Type {
	if st, ok := t.(*types.Stack); ok {
		return st.Elem.T
	}
	return nil
}

// compileArg lowers one call argument: the expression always, plus the
// l-value plan when the argument has that shape.
func (c *compiler) compileArg(e ast.Expr) *cArg {
	a := &cArg{expr: c.compileExpr(e)}
	a.lv, _, a.notLV = c.compileLValue(e)
	return a
}

func (c *compiler) compileArgs(es []ast.Expr) []*cArg {
	out := make([]*cArg, len(es))
	for i, e := range es {
		out[i] = c.compileArg(e)
	}
	return out
}

// ---------------------------------------------------------------------------
// Expressions

func (c *compiler) compileExpr(e ast.Expr) cExpr {
	switch e := e.(type) {
	case *ast.BoolLit:
		v := BoolVal(e.Val)
		return func(*Machine) (Value, error) { return v, nil }

	case *ast.IntLit:
		var v Value
		if e.HasWidth {
			v = BoxBit(e.Width, e.Val)
		} else {
			v = IntVal(int64(e.Val))
		}
		return func(*Machine) (Value, error) { return v, nil }

	case *ast.Ident, *ast.Member, *ast.Index:
		x, _ := c.compileAccess(e)
		return x

	case *ast.Unary:
		return c.compileUnary(e)

	case *ast.Binary:
		return c.compileBinary(e)

	case *ast.RecordLit:
		names := make([]string, len(e.Fields))
		exprs := make([]cExpr, len(e.Fields))
		for i, f := range e.Fields {
			names[i] = f.Name
			exprs[i] = c.compileExpr(f.Value)
		}
		return func(m *Machine) (Value, error) {
			fs := make([]NamedValue, len(exprs))
			for i, ex := range exprs {
				v, err := ex(m)
				if err != nil {
					return nil, err
				}
				fs[i] = NamedValue{names[i], v}
			}
			return &RecordVal{fs}, nil
		}

	case *ast.Call:
		fun := c.compileExpr(e.Fun)
		args := c.compileArgs(e.Args)
		pos := e.P
		return func(m *Machine) (Value, error) {
			fv, err := fun(m)
			if err != nil {
				return nil, err
			}
			v, sig, err := m.invoke(pos, fv, args, nil)
			if err != nil {
				return nil, err
			}
			if sig.Kind == SigExit {
				return nil, errors.New(at(pos) + "exit inside an expression call")
			}
			return v, nil
		}

	default:
		msg := e.Pos().String() + ": unsupported expression"
		return func(*Machine) (Value, error) { return nil, errors.New(msg) }
	}
}

// compileAccess lowers a name, field or index expression and also returns
// its static type (nil when unknown), so a field projection on top of it
// compiles to a position. Any other expression compiles through
// compileExpr, with no type.
func (c *compiler) compileAccess(e ast.Expr) (cExpr, types.Type) {
	switch e := e.(type) {
	case *ast.Ident:
		b, ok := c.sc.lookup(e.Name)
		if !ok {
			msg := e.P.String() + ": undeclared variable " + strconv.Quote(e.Name)
			return func(*Machine) (Value, error) { return nil, errors.New(msg) }, nil
		}
		slot := b.ref.slot
		var x cExpr
		switch b.ref.region {
		case rGlobal:
			x = func(m *Machine) (Value, error) { return m.globals[slot], nil }
		case rCtrl:
			x = func(m *Machine) (Value, error) { return m.ctrl[slot], nil }
		case rLocal:
			x = func(m *Machine) (Value, error) { return m.cur[slot], nil }
		default:
			x = func(m *Machine) (Value, error) { return m.regs[slot], nil }
		}
		return x, b.t

	case *ast.Member:
		x, xt := c.compileAccess(e.X)
		field := e.Field
		pos, t := fieldPos(xt, field)
		src := e.P
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			if f := fieldAt(fieldsOf(xv), pos, field); f != nil {
				return f.Val, nil
			}
			return nil, errors.New(at(src) + noField(xv, field))
		}, t

	case *ast.Index:
		x, xt := c.compileAccess(e.X)
		ix := c.compileExpr(e.I)
		pos := e.P
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			iv, err := ix(m)
			if err != nil {
				return nil, err
			}
			idx, err := toIndex(iv)
			if err != nil {
				return nil, errors.New(at(pos) + err.Error())
			}
			v, err := project(xv, accessor{index: idx})
			if err != nil {
				return nil, errors.New(at(pos) + err.Error())
			}
			return v, nil
		}, elemType(xt)

	default:
		return c.compileExpr(e), nil
	}
}

func (c *compiler) compileUnary(e *ast.Unary) cExpr {
	x := c.compileExpr(e.X)
	pos := e.P
	switch e.Op {
	case token.NOT:
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			b, ok := xv.(BoolVal)
			if !ok {
				return nil, fmt.Errorf("%s! on %s", at(pos), xv)
			}
			return BoolVal(!bool(b)), nil
		}
	case token.MINUS:
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			switch v := xv.(type) {
			case IntVal:
				return IntVal(-int64(v)), nil
			case BitVal:
				return BoxBit(v.W, -v.V), nil
			}
			return nil, fmt.Errorf("%s- on %s", at(pos), xv)
		}
	case token.BITNOT:
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			b, ok := xv.(BitVal)
			if !ok {
				return nil, fmt.Errorf("%s~ on %s", at(pos), xv)
			}
			return BoxBit(b.W, ^b.V), nil
		}
	default:
		op := e.Op
		return func(m *Machine) (Value, error) {
			if _, err := x(m); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%sunsupported unary operator %s", at(pos), op)
		}
	}
}

func (c *compiler) compileBinary(e *ast.Binary) cExpr {
	x := c.compileExpr(e.X)
	y := c.compileExpr(e.Y)
	pos, op := e.P, e.Op
	switch op {
	case token.AND, token.OR:
		isAnd := op == token.AND
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			xb, ok := xv.(BoolVal)
			if !ok {
				return nil, fmt.Errorf("%s%s on %s", at(pos), op, xv)
			}
			if isAnd && !bool(xb) {
				return BoolVal(false), nil
			}
			if !isAnd && bool(xb) {
				return BoolVal(true), nil
			}
			yv, err := y(m)
			if err != nil {
				return nil, err
			}
			yb, ok := yv.(BoolVal)
			if !ok {
				return nil, fmt.Errorf("%s%s on %s", at(pos), op, yv)
			}
			return yb, nil
		}
	case token.EQ, token.NEQ:
		neq := op == token.NEQ
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			yv, err := y(m)
			if err != nil {
				return nil, err
			}
			// numPair's coercions, inlined unboxed: re-packing the pair
			// through the Value interface would heap-allocate per comparison.
			var eq bool
			switch av := xv.(type) {
			case IntVal:
				switch bv := yv.(type) {
				case IntVal:
					eq = av == bv
				case BitVal:
					eq = NewBit(bv.W, uint64(av)) == bv
				default:
					eq = ValueEqual(xv, yv)
				}
			case BitVal:
				switch bv := yv.(type) {
				case IntVal:
					eq = av == NewBit(av.W, uint64(bv))
				case BitVal:
					eq = av == bv
				default:
					eq = ValueEqual(xv, yv)
				}
			default:
				eq = ValueEqual(xv, yv)
			}
			if neq {
				eq = !eq
			}
			return BoolVal(eq), nil
		}
	default:
		return func(m *Machine) (Value, error) {
			xv, err := x(m)
			if err != nil {
				return nil, err
			}
			yv, err := y(m)
			if err != nil {
				return nil, err
			}
			// numPair's coercions, inlined unboxed (see the EQ case).
			switch av := xv.(type) {
			case IntVal:
				switch bv := yv.(type) {
				case IntVal:
					return intOp(op, pos, int64(av), int64(bv))
				case BitVal:
					return bitOp(op, pos, NewBit(bv.W, uint64(av)), bv)
				}
			case BitVal:
				switch bv := yv.(type) {
				case IntVal:
					return bitOp(op, pos, av, NewBit(av.W, uint64(bv)))
				case BitVal:
					if av.W == bv.W {
						return bitOp(op, pos, av, bv)
					}
				}
			}
			return nil, fmt.Errorf("%soperator %s on %s and %s", at(pos), op, xv, yv)
		}
	}
}
