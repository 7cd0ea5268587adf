package exhaust

import (
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/token"
)

// Entry liveness: which of a control's parameter leaves may have their
// entry value read by a run. A secret leaf outside that set cannot change
// anything a run does — not its path, its signal, its errors, nor any
// output but the leaf's own slot, which is secret and so never compared —
// so the sweep keeps it at digit 0 instead of enumerating it.
//
// The pass is syntactic: it tracks reads of parameter paths before a
// definite write, and knows nothing of labels or flows, so it shares no
// logic with the IFC checker whose verdicts the oracle tests. Its rules:
//
//   - a read of a path, or of any prefix of it (a whole-header copy, a
//     call argument), reads every leaf below that no definite write to
//     it or a prefix came before;
//   - an if/else keeps a write only if both arms make it; exit, and
//     return at control level, end the path, so nothing after them runs;
//   - directly called control-local actions and functions are analysed
//     inline, but the writes of one that contains a return do not count;
//     a call's arguments are reads, its copy-out writes are not counted
//     (nor a builtin's, which writes only its argument);
//   - a table apply reads its keys and the arguments and bodies of every
//     action it lists, and counts none of their writes;
//   - anything else — a method call, a dynamic index under a parameter,
//     a declaration that shadows a parameter or a control-local name, an
//     unknown callee, recursion — marks every leaf as read.

// liveness is the state of one pass over one control.
type liveness struct {
	ctrl *ast.ControlDecl
	// leaves are the tracked leaf paths: a parameter name, then field
	// names and decimal stack indices.
	leaves [][]string

	w    uint64 // leaves written on every path here; all ones if no path gets here
	live uint64 // leaves whose entry value may be read
	all  bool   // an unmodelled construct was met: every leaf may be read
	ret  bool   // the body being analysed has executed a return

	active []*ast.FuncDecl // functions being inlined, innermost last
	buf    []string        // the parameter path resolved last
}

// unreachable is the write set of a point no run reaches: every leaf is
// written there, so no read after it counts and a join ignores it.
const unreachable = ^uint64(0)

// entryReads returns the leaves (bit i for leaves[i], at most 64 of them)
// whose entry value ctrl may read.
func entryReads(ctrl *ast.ControlDecl, leaves [][]string) uint64 {
	a := &liveness{ctrl: ctrl, leaves: leaves}
	a.control()
	if a.all {
		return unreachable >> (64 - len(leaves))
	}
	return a.live
}

func (a *liveness) control() {
	// Every name the pass resolves must name one thing.
	for _, p := range a.ctrl.Params {
		if a.declared(p.Name) > 1 {
			a.all = true
			return
		}
	}
	for _, d := range a.ctrl.Locals {
		if a.declared(d.DeclName()) > 1 {
			a.all = true
			return
		}
	}
	// Local variable initializers run at control entry, in order.
	for _, d := range a.ctrl.Locals {
		if vd, ok := d.(*ast.VarDecl); ok && vd.Init != nil {
			a.read(vd.Init)
		}
	}
	a.stmt(a.ctrl.Apply)
}

// declared counts the control's parameters and locals named name. A
// declaration inside the control that shadows one of them is not
// modelled.
func (a *liveness) declared(name string) int {
	n := 0
	for _, p := range a.ctrl.Params {
		if p.Name == name {
			n++
		}
	}
	for _, d := range a.ctrl.Locals {
		if d.DeclName() == name {
			n++
		}
	}
	return n
}

func (a *liveness) isParam(name string) bool {
	for _, p := range a.ctrl.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// local returns the control-local declaration named name, or nil.
func (a *liveness) local(name string) ast.Decl {
	for _, d := range a.ctrl.Locals {
		if d.DeclName() == name {
			return d
		}
	}
	return nil
}

// builtin reports whether name is a builtin callee; its writes go only to
// its arguments.
func builtin(name string) bool { return name == "mark_to_drop" || name == "NoAction" }

func (a *liveness) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, x := range s.Stmts {
			a.stmt(x)
		}
	case *ast.AssignStmt:
		a.read(s.RHS)
		if a.path(s.LHS) {
			a.write()
		} else {
			a.indices(s.LHS)
		}
	case *ast.IfStmt:
		a.read(s.Cond)
		pre := a.w
		a.stmt(s.Then)
		then := a.w
		a.w = pre
		if s.Else != nil {
			a.stmt(s.Else)
		}
		a.w &= then
	case *ast.ExitStmt:
		a.w = unreachable
	case *ast.ReturnStmt:
		if s.X != nil {
			a.read(s.X)
		}
		a.ret = true
		a.w = unreachable
	case *ast.ExprStmt:
		a.read(s.X)
	case *ast.ApplyStmt:
		a.apply(s.Table)
	case *ast.DeclStmt:
		if a.declared(s.Decl.Name) > 0 {
			a.all = true
			return
		}
		if s.Decl.Init != nil {
			a.read(s.Decl.Init)
		}
	default:
		a.all = true
	}
}

// read records the reads evaluating e makes, and the writes of the calls
// in it.
func (a *liveness) read(e ast.Expr) {
	switch e := e.(type) {
	case *ast.BoolLit, *ast.IntLit:
	case *ast.Ident:
		if a.path(e) {
			a.use()
		}
	case *ast.Member:
		if a.path(e) {
			a.use()
			return
		}
		a.read(e.X)
	case *ast.Index:
		if a.path(e) {
			a.use()
			return
		}
		a.read(e.X)
		a.read(e.I)
	case *ast.Unary:
		a.read(e.X)
	case *ast.Binary:
		a.read(e.X)
		pre := a.w
		a.read(e.Y)
		if e.Op == token.AND || e.Op == token.OR {
			a.w = pre // the right operand may not run
		}
	case *ast.RecordLit:
		for _, f := range e.Fields {
			a.read(f.Value)
		}
	case *ast.Call:
		a.call(e)
	default:
		a.all = true
	}
}

// indices records the reads of the index expressions in an l-value that
// does not name a parameter path.
func (a *liveness) indices(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Member:
		a.indices(e.X)
	case *ast.Index:
		a.indices(e.X)
		a.read(e.I)
	}
}

// path resolves e into buf when it names a place under a control
// parameter through fields and constant indices. A dynamic index under a
// parameter is not modelled.
func (a *liveness) path(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if !a.isParam(e.Name) {
			return false
		}
		a.buf = append(a.buf[:0], e.Name)
		return true
	case *ast.Member:
		if !a.path(e.X) {
			return false
		}
		a.buf = append(a.buf, e.Field)
		return true
	case *ast.Index:
		if !a.path(e.X) {
			return false
		}
		lit, ok := e.I.(*ast.IntLit)
		if !ok {
			a.all = true
			return false
		}
		a.buf = append(a.buf, strconv.FormatUint(lit.Val, 10))
		return true
	}
	return false
}

// use records a read of buf.
func (a *liveness) use() {
	for i, leaf := range a.leaves {
		if a.w&(1<<i) == 0 && readsLeaf(a.buf, leaf) {
			a.live |= 1 << i
		}
	}
}

// write records a definite write of buf.
func (a *liveness) write() {
	for i, leaf := range a.leaves {
		if writesLeaf(a.buf, leaf) {
			a.w |= 1 << i
		}
	}
}

// readsLeaf reports whether reading path reads leaf: one is a prefix of
// the other. An index also reads element 0, since an out-of-range read
// yields a copy of it.
func readsLeaf(path, leaf []string) bool {
	for j := 0; j < len(path) && j < len(leaf); j++ {
		if path[j] != leaf[j] && !(isIndex(path[j]) && leaf[j] == "0") {
			return false
		}
	}
	return true
}

// writesLeaf reports whether writing path overwrites all of leaf: path is
// a prefix of it. (An out-of-range index write is dropped; it matches no
// leaf.)
func writesLeaf(path, leaf []string) bool {
	return len(path) <= len(leaf) && slices.Equal(path, leaf[:len(path)])
}

// isIndex reports whether a path segment is a stack index; names never
// start with a digit.
func isIndex(seg string) bool { return seg != "" && seg[0] >= '0' && seg[0] <= '9' }

// call records a call: its arguments are read, then the callee runs.
func (a *liveness) call(c *ast.Call) {
	id, ok := c.Fun.(*ast.Ident)
	if !ok { // a method call
		a.all = true
		return
	}
	for _, arg := range c.Args {
		a.read(arg)
	}
	a.callee(id.Name, true)
}

// callee records a run of the named callee: a control-local action or
// function runs inline; a builtin writes only its arguments.
func (a *liveness) callee(name string, keep bool) {
	if fn, ok := a.local(name).(*ast.FuncDecl); ok {
		a.inline(fn, keep)
	} else if !builtin(name) {
		a.all = true
	}
}

// inline analyses fn's body at the current point. Its writes count only
// when keep is set and the body contains no return.
func (a *liveness) inline(fn *ast.FuncDecl, keep bool) {
	for _, f := range a.active {
		if f == fn { // recursion: the machine stops it at run time
			a.all = true
			return
		}
	}
	for _, p := range fn.Params {
		if a.declared(p.Name) > 0 {
			a.all = true
			return
		}
	}
	a.active = append(a.active, fn)
	pre, ret := a.w, a.ret
	a.ret = false
	a.stmt(fn.Body)
	if a.ret || !keep {
		a.w = pre
	}
	a.ret = ret
	a.active = a.active[:len(a.active)-1]
}

// apply records a table application: the keys, then any listed action
// with its bound arguments, none of whose writes count.
func (a *liveness) apply(t ast.Expr) {
	id, ok := t.(*ast.Ident)
	var td *ast.TableDecl
	if ok {
		td, _ = a.local(id.Name).(*ast.TableDecl)
	}
	if td == nil {
		a.all = true
		return
	}
	for _, k := range td.Keys {
		a.read(k.Expr)
	}
	pre := a.w
	act := func(ref *ast.ActionRef) {
		for _, arg := range ref.Args {
			a.read(arg)
		}
		a.callee(ref.Name, false)
		a.w = pre
	}
	for i := range td.Actions {
		act(&td.Actions[i])
	}
	if td.Default != nil {
		act(td.Default)
	}
}
