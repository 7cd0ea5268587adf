// Compilation of a resolved program into a tree of evaluator nodes.
//
// Compile lowers a *ast.Program into pre-bound evaluator nodes: every name
// reference becomes a (region, slot) index into flat value frames, every
// field access whose base has a statically known record or header type
// becomes a field position, and every statement and expression becomes a
// node over those slots. The common kinds of node (slot and field reads,
// constants, binary operations, assignments, ifs) are structs, carved from
// one slab per kind that a counting walk sizes for the whole program, or
// shared by every program; the rest are Go closures. Error messages keep
// the source node and are formatted only when the error happens. Running
// a trial on the resulting Machine costs input-state setup plus node
// evaluation — no AST walking, no map-based environment or store lookups,
// no field-name scans, and no per-node allocation beyond the values the
// program itself constructs.
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
	"sync"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/diag"
	"repro/internal/resolve"
	"repro/internal/token"
	"repro/internal/types"
)

// cExpr is a compiled expression: evaluate against the machine state. The
// common kinds of node (constants, slot and field reads, binary
// operations) are structs, shared by every program or carved from the
// program's slabs; the rest are closures (exprFunc).
type cExpr interface {
	eval(*Machine) (Value, error)
}

// exprFunc is a cExpr written as a closure.
type exprFunc func(*Machine) (Value, error)

func (f exprFunc) eval(m *Machine) (Value, error) { return f(m) }

// cStmt is a compiled statement. Assignments and ifs, most of a program's
// statements, are structs carved from slabs; the rest are closures
// (stmtFunc).
type cStmt interface {
	exec(*Machine) (Signal, error)
}

// stmtFunc is a cStmt written as a closure.
type stmtFunc func(*Machine) (Signal, error)

func (f stmtFunc) exec(m *Machine) (Signal, error) { return f(m) }

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
}

// cControl is a compiled control block. Slots [0, len(params)) of its frame
// hold the parameters (and, at the end of a run, the outputs).
type cControl struct {
	name      string
	params    []cParam
	frameSize int
	locals    []cLocal // initialized in order before the apply block
	body      []cStmt  // the apply block
}

// cLocal sets one control-local slot at the start of a run: to init's
// value coerced to t, to val (a closure or table, shared by every run),
// or else to a fresh copy of zero.
type cLocal struct {
	slot int
	init cExpr
	t    types.Type
	val  Value
	zero Value
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
	field string
	pos   int        // field position in the base's static type, -1 if unknown
	idx   cExpr      // nil for field accessors
	ix    *ast.Index // the index node, for error messages
}

// cLValue is a compiled l-value: resolved base plus accessor path.
// undeclared is set when the base name is not in scope — the interpreter
// reports that only at read/write time (after index evaluation), so the
// compiled form defers it the same way.
type cLValue struct {
	base       *ast.Ident // for error messages
	path       []cAccessor
	ref        varRef
	undeclared bool
}

// baseErr is the error for an undeclared base.
func (lv *cLValue) baseErr() error {
	return errors.New(lv.base.P.String() + ": undeclared variable " + strconv.Quote(lv.base.Name))
}

// tableInfo records a table declaration for control-plane registration.
type tableInfo struct {
	name  string
	kinds []string
}

// Compiled is a program lowered to evaluator nodes. It is immutable after Compile
// and safe to share across goroutines; per-run state lives in Machine.
type Compiled struct {
	controls []*cControl
	globals  []Value // evaluated top-level state template
	regZero  []Value // zero templates for register slots
	tables   []tableInfo
	maxFrame int // the largest control frame
}

// compiler carries the compile-time scopes and frame allocators.
type compiler struct {
	res   *resolve.Resolver
	diags *diag.List // the resolver's
	err   error

	// names is the scope chain mirroring Env, innermost binding last: a
	// scope is the bindings above the length it started at, and a lookup
	// scans down from the top, so an inner binding shadows an outer one.
	names       []binding
	frameSize   int   // slots allocated so far in the frame being compiled
	frameRegion uint8 // region those slots live in (rCtrl or rLocal)
	regZero     []Value

	// consts holds one node per distinct constant value that has no shared
	// one (see constant). The slabs back the program's l-values,
	// l-value paths, statement lists, field reads, binary operations,
	// assignments and ifs (see carve).
	consts  []*constExpr
	lvs     []cLValue
	paths   []cAccessor
	stmts   []cStmt
	reads   []fieldPath
	bins    []binExpr
	assigns []assignStmt
	ifs     []ifStmt
}

// binding is a name's slot plus its declared type (nil for builtins, match
// kinds, closures and tables, whose fields are never projected).
type binding struct {
	name string
	ref  varRef
	t    types.Type
}

func (c *compiler) bind(name string, r varRef, t types.Type) {
	c.names = append(c.names, binding{name, r, t})
}

func (c *compiler) lookup(name string) (binding, bool) {
	for i := len(c.names) - 1; i >= 0; i-- {
		if c.names[i].name == name {
			return c.names[i], true
		}
	}
	return binding{}, false
}

// carve returns n fresh elements cut from the end of *slab, starting a new
// backing array when the current one is full. The pieces never overlap
// and live as long as the Compiled program, so a program's many small
// slices and l-values cost a few allocations rather than one each.
// Compile sizes each slab for the whole program up front (slabSizes).
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, 8))
	}
	i := len(*slab)
	*slab = (*slab)[:i+n]
	return (*slab)[i : i+n : i+n]
}

// slabSizes bounds what compiling a program carves from each slab: the
// statements of its blocks, its l-values, their path steps, its field
// reads, binary operations, assignments and ifs.
type slabSizes struct{ stmts, lvs, paths, reads, bins, assigns, ifs int }

// program counts everything Compile compiles: global and local var
// inits, table keys and action arguments, function bodies and apply
// blocks.
func (n *slabSizes) program(prog *ast.Program) {
	for _, d := range prog.Decls {
		if vd, ok := d.(*ast.VarDecl); ok && vd.Init != nil {
			n.expr(vd.Init)
		}
	}
	for _, ctrl := range prog.Controls {
		for _, d := range ctrl.Locals {
			switch d := d.(type) {
			case *ast.VarDecl:
				if d.Init != nil {
					n.expr(d.Init)
				}
			case *ast.FuncDecl:
				n.block(d.Body)
			case *ast.TableDecl:
				for _, k := range d.Keys {
					n.expr(k.Expr)
				}
				for i := range d.Actions {
					n.args(d.Actions[i].Args)
				}
				if d.Default != nil {
					n.args(d.Default.Args)
				}
			}
		}
		n.block(ctrl.Apply)
	}
}

func (n *slabSizes) block(b *ast.BlockStmt) {
	n.stmts += len(b.Stmts)
	for _, s := range b.Stmts {
		n.stmt(s)
	}
}

func (n *slabSizes) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		n.block(s)
	case *ast.AssignStmt:
		n.assigns++
		n.lvalue(s.LHS)
		n.expr(s.RHS)
	case *ast.IfStmt:
		n.ifs++
		n.expr(s.Cond)
		n.block(s.Then)
		if s.Else != nil {
			n.stmt(s.Else)
		}
	case *ast.ReturnStmt:
		if s.X != nil {
			n.expr(s.X)
		}
	case *ast.ExprStmt:
		n.expr(s.X)
	case *ast.ApplyStmt:
		n.expr(s.Table)
	case *ast.DeclStmt:
		if s.Decl.Init != nil {
			n.expr(s.Decl.Init)
		}
	}
}

// lvalue counts an l-value and its path, whose index expressions
// compileLValue compiles.
func (n *slabSizes) lvalue(e ast.Expr) {
	n.lvs++
	for {
		switch x := e.(type) {
		case *ast.Member:
			n.paths++
			e = x.X
		case *ast.Index:
			n.paths++
			n.expr(x.I)
			e = x.X
		default:
			return
		}
	}
}

// args counts call arguments, each compiled as an expression and as an
// l-value.
func (n *slabSizes) args(es []ast.Expr) {
	for _, e := range es {
		n.lvalue(e)
		n.expr(e)
	}
}

func (n *slabSizes) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Member:
		// One field read covers x.f or x.f.g (see fieldPath).
		switch x := e.X.(type) {
		case *ast.Ident:
			n.reads++
		case *ast.Member:
			if _, ok := x.X.(*ast.Ident); ok {
				n.reads++
				return
			}
			n.expr(x)
		default:
			n.expr(x)
		}
	case *ast.Index:
		n.expr(e.X)
		n.expr(e.I)
	case *ast.Unary:
		n.expr(e.X)
	case *ast.Binary:
		n.bins++
		n.expr(e.X)
		n.expr(e.Y)
	case *ast.RecordLit:
		for _, f := range e.Fields {
			n.expr(f.Value)
		}
	case *ast.Call:
		n.expr(e.Fun)
		n.args(e.Args)
	}
}

// namesPool recycles the compile-time binding stacks, which no Compiled
// program keeps.
var namesPool = sync.Pool{New: func() any { return new([]binding) }}

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

// Compile lowers prog into a tree of evaluator nodes. Top-level constants are
// evaluated now (they are deterministic), so NewMachine only copies a
// template. An error means the program uses something the compiler does not
// handle (or is ill-formed in a way the interpreter would also reject at
// load time); callers should fall back to the tree-walking interpreter.
func Compile(prog *ast.Program) (*Compiled, error) {
	c := &compiler{}
	c.diags = new(diag.List)
	c.res = resolve.New(labelBlind, c.diags)
	c.res.CollectTypeDecls(prog)
	if err := c.diags.Err(); err != nil {
		return nil, err
	}
	out := &Compiled{}
	var sizes slabSizes
	sizes.program(prog)
	c.stmts = make([]cStmt, 0, sizes.stmts)
	c.lvs = make([]cLValue, 0, sizes.lvs)
	c.paths = make([]cAccessor, 0, sizes.paths)
	c.reads = make([]fieldPath, 0, sizes.reads)
	c.bins = make([]binExpr, 0, sizes.bins)
	c.assigns = make([]assignStmt, 0, sizes.assigns)
	c.ifs = make([]ifStmt, 0, sizes.ifs)
	names := namesPool.Get().(*[]binding)
	c.names = (*names)[:0]
	defer func() {
		clear(c.names[:cap(c.names)])
		*names = c.names[:0]
		namesPool.Put(names)
	}()

	// Globals: builtins, match kinds, then top-level vars in declaration
	// order, exactly as New binds them. Inits are evaluated on a bootstrap
	// machine; store writes during evaluation land in the template.
	globals := make([]Value, 0, 2+len(c.res.MatchKinds)+len(prog.Decls))
	bindGlobal := func(name string, v Value, t types.Type) {
		c.bind(name, varRef{rGlobal, len(globals)}, t)
		globals = append(globals, v)
	}
	for _, b := range builtinVals {
		bindGlobal(string(b.(BuiltinVal)), b, nil)
	}
	for _, m := range c.res.MatchKinds {
		bindGlobal(m, matchKindVal(m), nil)
	}
	var boot *Machine
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
			init := c.compileExpr(vd.Init)
			if c.err != nil {
				return nil, c.err
			}
			if boot == nil {
				boot = &Machine{fuel: DefaultFuel}
			}
			boot.globals = globals
			iv, err := init.eval(boot)
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

	out.controls = make([]*cControl, 0, len(prog.Controls))
	for _, ctrl := range prog.Controls {
		cc, err := c.compileControl(ctrl)
		if err != nil {
			return nil, err
		}
		out.controls = append(out.controls, cc)
		out.maxFrame = max(out.maxFrame, cc.frameSize)
	}
	out.regZero = c.regZero
	return out, nil
}

// builtinVals are the builtins every program binds first, boxed once.
var builtinVals = [...]Value{BuiltinVal("mark_to_drop"), BuiltinVal("NoAction")}

// stdMatchKinds are the builtin match kinds, boxed once.
var stdMatchKinds = [...]Value{MatchKindVal("exact"), MatchKindVal("lpm"), MatchKindVal("ternary")}

// matchKindVal is MatchKindVal(name) as a Value, boxed once for the
// builtin kinds.
func matchKindVal(name string) Value {
	for _, v := range stdMatchKinds {
		if string(v.(MatchKindVal)) == name {
			return v
		}
	}
	return MatchKindVal(name)
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
// call time every local is visible): a second pass over the locals compiles
// them once every local is bound.
func (c *compiler) compileControl(ctrl *ast.ControlDecl) (*cControl, error) {
	cc := &cControl{name: ctrl.Name, params: make([]cParam, len(ctrl.Params))}
	scope := len(c.names)
	for i, p := range ctrl.Params {
		st := c.res.SecType(p.Type)
		if !c.check() {
			return nil, c.err
		}
		c.bind(p.Name, varRef{rCtrl, i}, st.T)
		cc.params[i] = cParam{name: p.Name, st: st}
	}
	c.frameSize, c.frameRegion = len(ctrl.Params), rCtrl
	cc.locals = make([]cLocal, 0, len(ctrl.Locals))
	for _, d := range ctrl.Locals {
		switch d := d.(type) {
		case *ast.VarDecl:
			st := c.res.SecType(d.Type)
			if !c.check() {
				return nil, c.err
			}
			if d.Register {
				c.bind(d.Name, varRef{rReg, len(c.regZero)}, st.T)
				c.regZero = append(c.regZero, Zero(st.T))
				continue
			}
			l := cLocal{slot: c.frameSize, t: st.T}
			if d.Init != nil {
				l.init = c.compileExpr(d.Init)
			} else {
				l.zero = Zero(st.T)
			}
			c.frameSize++
			cc.locals = append(cc.locals, l)
			c.bind(d.Name, varRef{rCtrl, l.slot}, st.T)
		case *ast.FuncDecl:
			fn := c.funcType(d)
			if !c.check() {
				return nil, c.err
			}
			clos := &cClos{name: d.Name, fn: fn, zeros: make([]Value, len(fn.Params))}
			for i, p := range fn.Params {
				clos.zeros[i] = Zero(p.Type.T)
			}
			cc.locals = append(cc.locals, cLocal{slot: c.frameSize, val: clos})
			c.bind(d.Name, varRef{rCtrl, c.frameSize}, nil)
			c.frameSize++
		case *ast.TableDecl:
			cc.locals = append(cc.locals, cLocal{slot: c.frameSize, val: &cTable{name: d.Name}})
			c.bind(d.Name, varRef{rCtrl, c.frameSize}, nil)
			c.frameSize++
		default:
			return nil, fmt.Errorf("%s: unsupported declaration in control body", d.Pos())
		}
	}
	cc.body = c.compileBlock(ctrl.Apply)
	cc.frameSize = c.frameSize
	next := 0 // cc.locals follows ctrl.Locals without the registers
	for _, d := range ctrl.Locals {
		if vd, ok := d.(*ast.VarDecl); ok && vd.Register {
			continue
		}
		l := &cc.locals[next]
		next++
		switch d := d.(type) {
		case *ast.FuncDecl:
			c.compileFuncBody(l.val.(*cClos), d.Body)
		case *ast.TableDecl:
			c.compileTable(l.val.(*cTable), d)
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	c.names = c.names[:scope]
	return cc, c.err
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
func (c *compiler) compileFuncBody(clos *cClos, body *ast.BlockStmt) {
	scope, frame, region := len(c.names), c.frameSize, c.frameRegion
	for i, p := range clos.fn.Params {
		c.bind(p.Name, varRef{rLocal, i}, p.Type.T)
	}
	c.frameSize, c.frameRegion = len(clos.fn.Params), rLocal
	clos.body = c.compileBlock(body)
	clos.frameSize = c.frameSize
	c.names, c.frameSize, c.frameRegion = c.names[:scope], frame, region
}

// compileTable lowers table keys and action references against the full
// control scope (the interpreter evaluates them in the table's captured
// environment at apply time, when every control local is bound).
func (c *compiler) compileTable(tv *cTable, d *ast.TableDecl) {
	tv.keys = make([]cExpr, len(d.Keys))
	for i, k := range d.Keys {
		tv.keys[i] = c.compileExpr(k.Expr)
	}
	mk := func(ref *ast.ActionRef) cActRef {
		ar := cActRef{name: ref.Name}
		if b, ok := c.lookup(ref.Name); ok {
			ar.ref, ar.resolved = b.ref, true
		}
		if len(ref.Args) > 0 {
			ar.args = c.compileArgs(ref.Args)
		}
		return ar
	}
	tv.actions = make([]cActRef, len(d.Actions))
	for i := range d.Actions {
		tv.actions[i] = mk(&d.Actions[i])
	}
	if d.Default != nil {
		dd := mk(d.Default)
		tv.deflt = &dd
		tv.defltName = d.Default.Name
		tv.missCall = &controlplane.ActionCall{Action: d.Default.Name}
	}
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) compileBlock(b *ast.BlockStmt) []cStmt {
	scope := len(c.names)
	out := carve(&c.stmts, len(b.Stmts))
	for i, s := range b.Stmts {
		out[i] = c.compileStmt(s)
	}
	c.names = c.names[:scope]
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
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return runBody(m, body)
		})

	case *ast.AssignStmt:
		lv, _, notLV := c.compileLValue(s.LHS)
		rhs := c.compileExpr(s.RHS)
		if lv == nil {
			return stmtFunc(func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{}, notLValue(notLV)
			})
		}
		a := &carve(&c.assigns, 1)[0]
		*a = assignStmt{lv: lv, rhs: rhs, s: s}
		return a

	case *ast.IfStmt:
		n := &carve(&c.ifs, 1)[0]
		n.s = s
		n.cond = c.compileExpr(s.Cond)
		n.then = c.compileBlock(s.Then)
		if s.Else != nil {
			scope := len(c.names)
			n.els = c.compileStmt(s.Else)
			c.names = c.names[:scope]
		}
		return n

	case *ast.ExitStmt:
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return Signal{Kind: SigExit}, nil
		})

	case *ast.ReturnStmt:
		if s.X == nil {
			return stmtFunc(func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{Kind: SigReturn, Val: UnitVal{}}, nil
			})
		}
		x := c.compileExpr(s.X)
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			v, err := x.eval(m)
			if err != nil {
				return Signal{}, err
			}
			return Signal{Kind: SigReturn, Val: v}, nil
		})

	case *ast.ExprStmt:
		call, ok := s.X.(*ast.Call)
		if !ok {
			msg := s.P.String() + ": expression statement is not a call"
			return stmtFunc(func(m *Machine) (Signal, error) {
				m.fuel--
				if m.fuel <= 0 {
					return Signal{}, outOfFuel(fuel)
				}
				return Signal{}, errors.New(msg)
			})
		}
		fun := c.compileExpr(call.Fun)
		args := c.compileArgs(call.Args)
		pos := call.P
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			fv, err := fun.eval(m)
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
		})

	case *ast.ApplyStmt:
		tbl := c.compileExpr(s.Table)
		pos := s.P
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			tv0, err := tbl.eval(m)
			if err != nil {
				return Signal{}, err
			}
			tv, ok := tv0.(*cTable)
			if !ok {
				return Signal{}, fmt.Errorf("%s: %s is not a table", pos, tv0)
			}
			return m.applyTable(pos, tv)
		})

	case *ast.DeclStmt:
		return c.compileDeclStmt(s, fuel)

	default:
		msg := s.Pos().String() + ": unsupported statement"
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			return Signal{}, errors.New(msg)
		})
	}
}

// assignStmt is a compiled assignment.
type assignStmt struct {
	lv  *cLValue
	rhs cExpr
	s   *ast.AssignStmt
}

func (a *assignStmt) exec(m *Machine) (Signal, error) {
	m.fuel--
	if m.fuel <= 0 {
		return Signal{}, outOfFuel(a.s.Pos())
	}
	ib, err := a.lv.evalIdx(m)
	if err != nil {
		return Signal{}, err
	}
	rv, err := a.rhs.eval(m)
	if err == nil {
		err = a.lv.write(m, ib, rv)
	}
	m.idxs = m.idxs[:ib]
	if err != nil {
		return Signal{}, err
	}
	return Signal{Kind: SigCont}, nil
}

// ifStmt is a compiled if statement; els is nil without an else branch.
type ifStmt struct {
	cond cExpr
	then []cStmt
	els  cStmt
	s    *ast.IfStmt
}

func (n *ifStmt) exec(m *Machine) (Signal, error) {
	m.fuel--
	if m.fuel <= 0 {
		return Signal{}, outOfFuel(n.s.Pos())
	}
	cv, err := n.cond.eval(m)
	if err != nil {
		return Signal{}, err
	}
	b, ok := cv.(BoolVal)
	if !ok {
		return Signal{}, fmt.Errorf("%sif condition evaluated to %s, not bool", at(n.s.P), cv)
	}
	if bool(b) {
		return runBody(m, n.then)
	}
	if n.els != nil {
		return n.els.exec(m)
	}
	return Signal{Kind: SigCont}, nil
}

// compileDeclStmt lowers a local variable declaration: evaluate the init in
// the progressive scope, then bind a fresh slot in the enclosing frame. The
// Register and Const flags are ignored in statement position, exactly as
// evalVarDecl ignores them.
func (c *compiler) compileDeclStmt(s *ast.DeclStmt, fuel token.Pos) cStmt {
	d := s.Decl
	st := c.res.SecType(d.Type)
	if !c.check() {
		err := c.err
		return stmtFunc(func(m *Machine) (Signal, error) { return Signal{}, err })
	}
	var init cExpr
	if d.Init != nil {
		init = c.compileExpr(d.Init)
	}
	ref := varRef{c.frameRegion, c.frameSize}
	c.frameSize++
	// Bind after compiling the init so the init sees the outer binding, as
	// the interpreter's evaluate-then-bind order does.
	c.bind(d.Name, ref, st.T)
	t := st.T
	if init != nil {
		return stmtFunc(func(m *Machine) (Signal, error) {
			m.fuel--
			if m.fuel <= 0 {
				return Signal{}, outOfFuel(fuel)
			}
			iv, err := init.eval(m)
			if err != nil {
				return Signal{}, err
			}
			m.set(ref, own(coerceValue(iv, t)))
			return Signal{Kind: SigCont}, nil
		})
	}
	zero := Zero(st.T)
	return stmtFunc(func(m *Machine) (Signal, error) {
		m.fuel--
		if m.fuel <= 0 {
			return Signal{}, outOfFuel(fuel)
		}
		m.set(ref, Copy(zero))
		return Signal{Kind: SigCont}, nil
	})
}

// ---------------------------------------------------------------------------
// L-values

// compileLValue returns the compiled l-value and its static type (nil when
// unknown), or nil plus the subexpression that lacks l-value shape, which
// notLValue turns into the interpreter's error. An out-of-scope base still
// compiles (the interpreter reports it only at read/write time, after index
// evaluation).
func (c *compiler) compileLValue(e ast.Expr) (*cLValue, types.Type, ast.Expr) {
	depth := 0
	base := e
	for {
		switch x := base.(type) {
		case *ast.Member:
			base, depth = x.X, depth+1
			continue
		case *ast.Index:
			base, depth = x.X, depth+1
			continue
		}
		break
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return nil, nil, base
	}
	lv := &carve(&c.lvs, 1)[0]
	lv.base = id
	b, ok := c.lookup(id.Name)
	lv.ref, lv.undeclared = b.ref, !ok
	if depth > 0 {
		lv.path = carve(&c.paths, depth)
	}
	return lv, c.lvaluePath(lv.path, e, b.t), nil
}

// lvaluePath fills path, which has one accessor per projection of e, from
// the base outwards, and returns e's static type; t is the base's.
func (c *compiler) lvaluePath(path []cAccessor, e ast.Expr, t types.Type) types.Type {
	if len(path) == 0 {
		return t
	}
	last := &path[len(path)-1]
	switch e := e.(type) {
	case *ast.Member:
		t = c.lvaluePath(path[:len(path)-1], e.X, t)
		pos, ft := fieldPos(t, e.Field)
		*last = cAccessor{field: e.Field, pos: pos}
		return ft
	default:
		ix := e.(*ast.Index)
		t = c.lvaluePath(path[:len(path)-1], ix.X, t)
		*last = cAccessor{idx: c.compileExpr(ix.I), ix: ix}
		return elemType(t)
	}
}

// notLValue is the interpreter's error for an expression without l-value
// shape where one is needed.
func notLValue(e ast.Expr) error { return fmt.Errorf("%s: %s is not an l-value", e.Pos(), e) }

// fieldPos resolves a projection of field from a base of static type t
// (nil when unknown): the field's position and static type when t is a
// record or header type that has the field, else -1 and nil.
func fieldPos(t types.Type, field string) (int, types.Type) {
	fs := types.Fields(t)
	for i := range fs {
		if fs[i].Name == field {
			return i, fs[i].Type.T
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
		return c.constant(BoolVal(e.Val))

	case *ast.IntLit:
		if e.HasWidth {
			return c.constant(BoxBit(e.Width, e.Val))
		}
		return c.constant(IntVal(int64(e.Val)))

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
		return exprFunc(func(m *Machine) (Value, error) {
			fs := make([]NamedValue, len(exprs))
			for i, ex := range exprs {
				v, err := ex.eval(m)
				if err != nil {
					return nil, err
				}
				fs[i] = NamedValue{names[i], v}
			}
			return &RecordVal{fs}, nil
		})

	case *ast.Call:
		fun := c.compileExpr(e.Fun)
		args := c.compileArgs(e.Args)
		pos := e.P
		return exprFunc(func(m *Machine) (Value, error) {
			fv, err := fun.eval(m)
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
		})

	default:
		msg := e.Pos().String() + ": unsupported expression"
		return exprFunc(func(*Machine) (Value, error) { return nil, errors.New(msg) })
	}
}

// fold is the value of the binary operation e on the constants x and y
// when it evaluates without error, which is what its node would return on
// every run. A failing operation is left to run time, where it fails with
// its error as the interpreter's does.
func fold(e *ast.Binary, x, y Value) (Value, bool) {
	switch e.Op {
	case token.AND, token.OR:
		xb, ok1 := x.(BoolVal)
		yb, ok2 := y.(BoolVal)
		if !ok1 || !ok2 {
			return nil, false
		}
		if e.Op == token.AND {
			return xb && yb, true
		}
		return xb || yb, true
	case token.EQ:
		return BoolVal(numEqual(x, y)), true
	case token.NEQ:
		return BoolVal(!numEqual(x, y)), true
	}
	v, err := arith(e.Op, &e.P, x, y)
	return v, err == nil
}

// constExpr is a compiled constant.
type constExpr struct{ v Value }

func (k *constExpr) eval(*Machine) (Value, error) { return k.v, nil }

// constant returns the node yielding v: a shared one for booleans and
// values of up to 8 bits, else one per distinct value in the program.
func (c *compiler) constant(v Value) cExpr {
	switch v := v.(type) {
	case BoolVal:
		if v {
			return &boolExprs[1]
		}
		return &boolExprs[0]
	case BitVal:
		if v.W <= 8 {
			return &bitExprs[v.W][v.V]
		}
	}
	for _, k := range c.consts {
		if k.v == v {
			return k
		}
	}
	k := &constExpr{v}
	c.consts = append(c.consts, k)
	return k
}

// boolExprs and bitExprs[w][v] are the constants shared by every program:
// false and true, and every value of bit<w> for w ≤ 8.
var (
	boolExprs = [2]constExpr{{BoolVal(false)}, {BoolVal(true)}}
	bitExprs  [9][]constExpr
)

func init() {
	for w := 1; w <= 8; w++ {
		bitExprs[w] = make([]constExpr, 1<<w)
		for i := range bitExprs[w] {
			bitExprs[w][i].v = BitVal{W: w, V: uint64(i)}
		}
	}
}

// slotExpr reads the slot a name refers to.
type slotExpr varRef

func (r *slotExpr) eval(m *Machine) (Value, error) { return m.get(varRef(*r)), nil }

// slotExprs[r][i] reads slot i of region r; name references to the first
// slots of each region share them.
var slotExprs = func() (out [4][32]slotExpr) {
	for r := range out {
		for i := range out[r] {
			out[r][i] = slotExpr{uint8(r), i}
		}
	}
	return out
}()

// slot returns the node reading the slot r names.
func slot(r varRef) cExpr {
	if r.slot < len(slotExprs[r.region]) {
		return &slotExprs[r.region][r.slot]
	}
	x := slotExpr(r)
	return &x
}

// fieldStep is a compiled projection of a field from a base of known or
// unknown static type: the field's position as fieldPos finds it, and the
// projection itself, for the field name and the error's position.
type fieldStep struct {
	pos int
	e   *ast.Member
}

// of projects the field out of v, with the interpreter's error when v has
// no such field.
func (s fieldStep) of(v Value) (Value, error) {
	if f := fieldAt(fieldsOf(v), s.pos, s.e.Field); f != nil {
		return f.Val, nil
	}
	return nil, errors.New(at(s.e.P) + noField(v, s.e.Field))
}

// fieldPath is a compiled read of x.f or x.f.g for a name x in scope: the
// slot, then one or two field projections.
type fieldPath struct {
	ref    varRef
	s1, s2 fieldStep // s2.e is nil for x.f
}

// eval reads the fields at their positions, and leaves any other case (a
// position that does not apply, a value without fields) to slow. Reads
// have no effects, so slow starts over.
func (p *fieldPath) eval(m *Machine) (Value, error) {
	fs := fieldsOf(m.get(p.ref))
	if p.s1.pos < 0 || p.s1.pos >= len(fs) {
		return p.slow(m)
	}
	v := fs[p.s1.pos].Val
	if p.s2.e == nil {
		return v, nil
	}
	fs = fieldsOf(v)
	if p.s2.pos < 0 || p.s2.pos >= len(fs) {
		return p.slow(m)
	}
	return fs[p.s2.pos].Val, nil
}

// slow is eval through fieldStep.of, which scans by name and builds the
// error.
func (p *fieldPath) slow(m *Machine) (Value, error) {
	v, err := p.s1.of(m.get(p.ref))
	if err != nil || p.s2.e == nil {
		return v, err
	}
	return p.s2.of(v)
}

// fieldPath compiles e as a fieldPath and returns it with its static
// type, or nil for any other shape.
func (c *compiler) fieldPath(e *ast.Member) (*fieldPath, types.Type) {
	outer, inner := (*ast.Member)(nil), e
	if m, ok := e.X.(*ast.Member); ok {
		outer, inner = e, m
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	b, ok := c.lookup(id.Name)
	if !ok {
		return nil, nil
	}
	p := &carve(&c.reads, 1)[0]
	p.ref = b.ref
	pos, t := fieldPos(b.t, inner.Field)
	p.s1 = fieldStep{pos, inner}
	if outer != nil {
		pos, t = fieldPos(t, outer.Field)
		p.s2 = fieldStep{pos, outer}
	}
	return p, t
}

// compileAccess lowers a name, field or index expression and also returns
// its static type (nil when unknown), so a field projection on top of it
// compiles to a position. Any other expression compiles through
// compileExpr, with no type.
func (c *compiler) compileAccess(e ast.Expr) (cExpr, types.Type) {
	switch e := e.(type) {
	case *ast.Ident:
		b, ok := c.lookup(e.Name)
		if !ok {
			msg := e.P.String() + ": undeclared variable " + strconv.Quote(e.Name)
			return exprFunc(func(*Machine) (Value, error) { return nil, errors.New(msg) }), nil
		}
		return slot(b.ref), b.t

	case *ast.Member:
		if p, t := c.fieldPath(e); p != nil {
			return p, t
		}
		x, xt := c.compileAccess(e.X)
		pos, t := fieldPos(xt, e.Field)
		step := fieldStep{pos, e}
		return exprFunc(func(m *Machine) (Value, error) {
			xv, err := x.eval(m)
			if err != nil {
				return nil, err
			}
			return step.of(xv)
		}), t

	case *ast.Index:
		x, xt := c.compileAccess(e.X)
		ix := c.compileExpr(e.I)
		pos := e.P
		return exprFunc(func(m *Machine) (Value, error) {
			xv, err := x.eval(m)
			if err != nil {
				return nil, err
			}
			iv, err := ix.eval(m)
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
		}), elemType(xt)

	default:
		return c.compileExpr(e), nil
	}
}

func (c *compiler) compileUnary(e *ast.Unary) cExpr {
	x := c.compileExpr(e.X)
	pos := e.P
	switch e.Op {
	case token.NOT:
		return exprFunc(func(m *Machine) (Value, error) {
			xv, err := x.eval(m)
			if err != nil {
				return nil, err
			}
			b, ok := xv.(BoolVal)
			if !ok {
				return nil, fmt.Errorf("%s! on %s", at(pos), xv)
			}
			return BoolVal(!bool(b)), nil
		})
	case token.MINUS:
		return exprFunc(func(m *Machine) (Value, error) {
			xv, err := x.eval(m)
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
		})
	case token.BITNOT:
		return exprFunc(func(m *Machine) (Value, error) {
			xv, err := x.eval(m)
			if err != nil {
				return nil, err
			}
			b, ok := xv.(BitVal)
			if !ok {
				return nil, fmt.Errorf("%s~ on %s", at(pos), xv)
			}
			return BoxBit(b.W, ^b.V), nil
		})
	default:
		op := e.Op
		return exprFunc(func(m *Machine) (Value, error) {
			if _, err := x.eval(m); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%sunsupported unary operator %s", at(pos), op)
		})
	}
}

func (c *compiler) compileBinary(e *ast.Binary) cExpr {
	x, y := c.compileExpr(e.X), c.compileExpr(e.Y)
	if xk, ok := x.(*constExpr); ok {
		if yk, ok := y.(*constExpr); ok {
			if v, ok := fold(e, xk.v, yk.v); ok {
				return c.constant(v)
			}
		}
	}
	b := &carve(&c.bins, 1)[0]
	*b = binExpr{x: x, y: y, op: e.Op, e: e}
	return b
}

// binExpr is a compiled binary operation.
type binExpr struct {
	x, y cExpr
	op   token.Kind
	e    *ast.Binary // for the error's position
}

func (b *binExpr) eval(m *Machine) (Value, error) {
	xv, err := b.x.eval(m)
	if err != nil {
		return nil, err
	}
	if b.op == token.AND || b.op == token.OR {
		xb, ok := xv.(BoolVal)
		if !ok {
			return nil, fmt.Errorf("%s%s on %s", at(b.e.P), b.op, xv)
		}
		if b.op == token.AND && !bool(xb) {
			return BoolVal(false), nil
		}
		if b.op == token.OR && bool(xb) {
			return BoolVal(true), nil
		}
		yv, err := b.y.eval(m)
		if err != nil {
			return nil, err
		}
		yb, ok := yv.(BoolVal)
		if !ok {
			return nil, fmt.Errorf("%s%s on %s", at(b.e.P), b.op, yv)
		}
		return yb, nil
	}
	yv, err := b.y.eval(m)
	if err != nil {
		return nil, err
	}
	// Two bit<w> operands are the common case: numEqual's and arith's
	// first branch, taken directly.
	if av, ok := xv.(BitVal); ok {
		if bv, ok := yv.(BitVal); ok && av.W == bv.W {
			switch b.op {
			case token.EQ:
				return BoolVal(av == bv), nil
			case token.NEQ:
				return BoolVal(av != bv), nil
			}
			return bitOp(b.op, &b.e.P, av, bv)
		}
	}
	switch b.op {
	case token.EQ:
		return BoolVal(numEqual(xv, yv)), nil
	case token.NEQ:
		return BoolVal(!numEqual(xv, yv)), nil
	}
	return arith(b.op, &b.e.P, xv, yv)
}

// numEqual is ==: numPair's coercions, inlined unboxed (re-packing the
// pair through the Value interface would heap-allocate per comparison),
// and ValueEqual for everything else.
func numEqual(xv, yv Value) bool {
	switch av := xv.(type) {
	case IntVal:
		switch bv := yv.(type) {
		case IntVal:
			return av == bv
		case BitVal:
			return NewBit(bv.W, uint64(av)) == bv
		}
	case BitVal:
		switch bv := yv.(type) {
		case IntVal:
			return av == NewBit(av.W, uint64(bv))
		case BitVal:
			return av == bv
		}
	}
	return ValueEqual(xv, yv)
}

// arith applies a binary operator other than &&, || and the equalities,
// with numPair's coercions inlined unboxed (see numEqual).
func arith(op token.Kind, pos *token.Pos, xv, yv Value) (Value, error) {
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
	return nil, fmt.Errorf("%soperator %s on %s and %s", at(*pos), op, xv, yv)
}
