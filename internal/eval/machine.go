// Machine is the runtime for compiled programs: flat value frames addressed
// by (region, slot), a frame pool for calls, and scratch stacks for l-value
// indices and copy-out writebacks. One Machine is single-threaded state; the
// Compiled program it runs is immutable and shared.
package eval

import (
	"errors"
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/token"
	"repro/internal/types"
)

// Machine executes a Compiled program against a control plane. It is
// reusable across runs: Reset restores register state, and the control
// frame and call frames are pooled, so steady-state execution allocates
// only the values the program itself constructs.
type Machine struct {
	code *Compiled
	cp   *controlplane.ControlPlane

	globals []Value // working copy of the global template
	regs    []Value // persistent register storage (survives runs until Reset)
	ctrl    []Value // the running control's frame
	cur     []Value // the innermost call frame (== ctrl outside calls)

	ctrlBuf   []Value   // reusable control-frame backing store
	framePool [][]Value // reusable call frames

	idxs []int // evaluated l-value indices, stack-disciplined
	wbs  []mwb // pending copy-out writebacks, stack-disciplined

	fuel  int
	depth int

	emptyApplies uint64 // see EmptyTableApplies
}

// mwb is a pending copy-out writeback: the destination l-value, the window
// of its evaluated indices in m.idxs, and the callee frame slot to copy
// from.
type mwb struct {
	lv      *cLValue
	idxBase int
	frame   []Value
	slot    int
}

// NewMachine prepares a machine for code. The control plane may be nil (all
// table applies miss); tables the program declares are registered with it,
// mirroring New.
func NewMachine(code *Compiled, cp *controlplane.ControlPlane) *Machine {
	if cp == nil {
		cp = controlplane.New()
	}
	m := &Machine{code: code, cp: cp}
	m.declareTables()
	m.globals = make([]Value, len(code.globals))
	m.regs = make([]Value, len(code.regZero))
	m.Reset()
	return m
}

func (m *Machine) declareTables() {
	for _, t := range m.code.tables {
		if m.cp.Table(t.name) == nil {
			m.cp.DeclareTable(t.name, t.kinds)
		}
	}
}

// Reset restores the machine to its just-constructed state: globals from
// the compile-time template, registers zeroed. Equivalent to running on a
// fresh interpreter.
func (m *Machine) Reset() {
	copy(m.globals, m.code.globals)
	for i, z := range m.code.regZero {
		m.regs[i] = Copy(z)
	}
	m.depth = 0
	m.idxs = m.idxs[:0]
	m.wbs = m.wbs[:0]
}

// EmptyTableApplies counts the table applications, over every run since
// NewMachine (Reset keeps the count), that met a table with no installed
// entries: the control plane chose nothing, and only the miss path ran.
// An oracle that proves a property of such runs has proved it for that
// empty table alone.
func (m *Machine) EmptyTableApplies() uint64 { return m.emptyApplies }

// ControlPlane returns the machine's control plane.
func (m *Machine) ControlPlane() *controlplane.ControlPlane { return m.cp }

// SetControlPlane swaps the control plane (declaring any missing tables).
func (m *Machine) SetControlPlane(cp *controlplane.ControlPlane) {
	if cp == nil {
		cp = controlplane.New()
	}
	m.cp = cp
	m.declareTables()
}

func (m *Machine) get(r varRef) Value {
	switch r.region {
	case rGlobal:
		return m.globals[r.slot]
	case rCtrl:
		return m.ctrl[r.slot]
	case rLocal:
		return m.cur[r.slot]
	default:
		return m.regs[r.slot]
	}
}

func (m *Machine) set(r varRef, v Value) {
	switch r.region {
	case rGlobal:
		m.globals[r.slot] = v
	case rCtrl:
		m.ctrl[r.slot] = v
	case rLocal:
		m.cur[r.slot] = v
	default:
		m.regs[r.slot] = v
	}
}

// RunIndexed executes control idx with pre-positioned argument values: one
// per declared parameter, in declaration order. The argument values are
// installed without copying. The machine mutates only the slots of their
// containers in place (record and header field values, stack elements),
// never replaces a container's field or element slice, and keeps no
// container once the run returns. So a caller may reuse an argument tree
// for the next run once it has restored every slot of every container in
// it (and header validity); scalar leaves are immutable and may be shared
// freely. Every record and header in the arguments must have exactly its
// declared fields in declared order (FieldOrderMismatch is ""), as values
// built from the type — Zero, RandomFrom, the NI and exhaustive samplers —
// do: compiled field accesses index by position, and this path does not
// check (FieldOrderMismatch does). The returned slice aliases the control
// frame — it is valid only until the machine's next run. This is the only
// way to run a compiled control.
func (m *Machine) RunIndexed(idx int, args []Value) ([]Value, Signal, error) {
	c := m.code.controls[idx]
	if len(args) != len(c.params) {
		return nil, Signal{}, fmt.Errorf("eval: control %s takes %d parameters, got %d",
			c.name, len(c.params), len(args))
	}
	frame := m.controlFrame(c)
	copy(frame, args)
	sig, err := m.run(c, frame)
	if err != nil {
		return nil, sig, err
	}
	return frame[:len(c.params)], sig, nil
}

// controlFrame returns the reusable control-frame buffer sized for c.
func (m *Machine) controlFrame(c *cControl) []Value {
	if cap(m.ctrlBuf) < c.frameSize {
		m.ctrlBuf = make([]Value, c.frameSize)
	}
	return m.ctrlBuf[:c.frameSize]
}

// run executes a control whose parameter slots are already populated.
func (m *Machine) run(c *cControl, frame []Value) (Signal, error) {
	m.fuel = DefaultFuel
	m.ctrl, m.cur = frame, frame
	for _, p := range c.prologue {
		if err := p(m); err != nil {
			return Signal{}, err
		}
	}
	sig, err := runBody(m, c.body)
	if err != nil {
		return Signal{}, err
	}
	return sig, nil
}

// runBody executes a statement sequence, mirroring evalBlock's signal
// handling.
func runBody(m *Machine, body []cStmt) (Signal, error) {
	for _, s := range body {
		sig, err := s(m)
		if err != nil {
			return Signal{}, err
		}
		if sig.Kind != SigCont {
			return sig, nil
		}
	}
	return Signal{Kind: SigCont}, nil
}

func (m *Machine) getFrame(n int) []Value {
	if last := len(m.framePool) - 1; last >= 0 {
		f := m.framePool[last]
		m.framePool = m.framePool[:last]
		if cap(f) >= n {
			return f[:n]
		}
	}
	return make([]Value, n)
}

func (m *Machine) putFrame(f []Value) { m.framePool = append(m.framePool, f) }

// ---------------------------------------------------------------------------
// Calls (Appendix H: copy-in / copy-out)

// invoke calls a closure or builtin. args are the syntactic arguments
// (evaluated in the caller's frame context); extra are pre-evaluated
// control-plane values appended after them, each bound as-is (the
// interpreter's argSpec.val path).
func (m *Machine) invoke(pos token.Pos, fv Value, args []*cArg, extra []Value) (Value, Signal, error) {
	clos, ok := fv.(*cClos)
	if !ok {
		if b, ok := fv.(BuiltinVal); ok {
			return m.invokeBuiltin(pos, b, args, extra)
		}
		return nil, Signal{}, fmt.Errorf("%s: %s is not callable", pos, fv)
	}
	if m.depth >= MaxCallDepth {
		return nil, Signal{}, fmt.Errorf("%s: call depth exceeds %d (recursion is not allowed in Core P4)", pos, MaxCallDepth)
	}
	m.depth++
	defer func() { m.depth-- }()
	if len(args)+len(extra) != len(clos.fn.Params) {
		return nil, Signal{}, fmt.Errorf("%s: %s takes %d arguments, got %d",
			pos, clos.name, len(clos.fn.Params), len(args)+len(extra))
	}
	idxBase0 := len(m.idxs)
	wbBase := len(m.wbs)
	frame := m.getFrame(clos.frameSize)
	fail := func(err error) (Value, Signal, error) {
		m.idxs = m.idxs[:idxBase0]
		m.wbs = m.wbs[:wbBase]
		m.putFrame(frame)
		return nil, Signal{}, err
	}
	// Copy-in, evaluated in the caller's frame context (m.cur unchanged).
	for i, p := range clos.fn.Params {
		if i >= len(args) {
			frame[i] = coerceValue(extra[i-len(args)], p.Type.T)
			continue
		}
		a := args[i]
		switch p.Dir {
		case types.In:
			v, err := a.expr(m)
			if err != nil {
				return fail(err)
			}
			frame[i] = Copy(coerceValue(v, p.Type.T))
		case types.Out:
			if a.lv == nil {
				return fail(notLValue(a.notLV))
			}
			ib, err := a.lv.evalIdx(m)
			if err != nil {
				return fail(err)
			}
			frame[i] = Copy(clos.zeros[i])
			m.wbs = append(m.wbs, mwb{lv: a.lv, idxBase: ib, frame: frame, slot: i})
		default: // inout
			if a.lv == nil {
				return fail(notLValue(a.notLV))
			}
			ib, err := a.lv.evalIdx(m)
			if err != nil {
				return fail(err)
			}
			v, err := a.lv.read(m, ib)
			if err != nil {
				return fail(err)
			}
			frame[i] = coerceValue(v, p.Type.T)
			m.wbs = append(m.wbs, mwb{lv: a.lv, idxBase: ib, frame: frame, slot: i})
		}
	}
	savedCur := m.cur
	m.cur = frame
	sig, err := runBody(m, clos.body)
	m.cur = savedCur
	if err != nil {
		return fail(err)
	}
	// Copy out (also on exit), against the caller's frames.
	for _, wb := range m.wbs[wbBase:] {
		if err := wb.lv.write(m, wb.idxBase, wb.frame[wb.slot]); err != nil {
			return fail(err)
		}
	}
	m.idxs = m.idxs[:idxBase0]
	m.wbs = m.wbs[:wbBase]
	m.putFrame(frame)
	switch sig.Kind {
	case SigReturn:
		return sig.Val, Signal{Kind: SigCont}, nil
	case SigExit:
		return UnitVal{}, sig, nil
	default:
		return UnitVal{}, Signal{Kind: SigCont}, nil
	}
}

func (m *Machine) invokeBuiltin(pos token.Pos, b BuiltinVal, args []*cArg, extra []Value) (Value, Signal, error) {
	switch string(b) {
	case "NoAction":
		return UnitVal{}, Signal{Kind: SigCont}, nil
	case "mark_to_drop":
		if len(args) != 1 || len(extra) != 0 {
			return nil, Signal{}, fmt.Errorf("%s: mark_to_drop takes one inout argument", pos)
		}
		a := args[0]
		if a.lv == nil {
			return nil, Signal{}, notLValue(a.notLV)
		}
		ib, err := a.lv.evalIdx(m)
		if err != nil {
			return nil, Signal{}, err
		}
		v, err := a.lv.read(m, ib)
		if err != nil {
			m.idxs = m.idxs[:ib]
			return nil, Signal{}, err
		}
		rec, ok := v.(*RecordVal)
		if !ok {
			m.idxs = m.idxs[:ib]
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
		err = a.lv.write(m, ib, &RecordVal{fs})
		m.idxs = m.idxs[:ib]
		if err != nil {
			return nil, Signal{}, err
		}
		return UnitVal{}, Signal{Kind: SigCont}, nil
	default:
		return nil, Signal{}, fmt.Errorf("%s: unknown builtin %s", pos, b)
	}
}

// ---------------------------------------------------------------------------
// Table application

// applyTable mirrors Interp.applyTable over a compiled table.
func (m *Machine) applyTable(pos token.Pos, tv *cTable) (Signal, error) {
	var kbuf [8]uint64
	keys := kbuf[:0]
	for i, k := range tv.keys {
		kv, err := k(m)
		if err != nil {
			return Signal{}, err
		}
		u, err := scalarToUint(kv)
		if err != nil {
			return Signal{}, fmt.Errorf("%s: table %s key %d: %v", pos, tv.name, i, err)
		}
		keys = append(keys, u)
	}
	if t := m.cp.Table(tv.name); t == nil || len(t.Entries) == 0 {
		m.emptyApplies++
	}
	call, ok := m.cp.Lookup(tv.name, keys)
	if !ok {
		if tv.missCall == nil {
			return Signal{Kind: SigCont}, nil
		}
		call = tv.missCall
	}
	var ref *cActRef
	for i := range tv.actions {
		if tv.actions[i].name == call.Action {
			ref = &tv.actions[i]
			break
		}
	}
	if ref == nil && tv.deflt != nil && tv.defltName == call.Action {
		ref = tv.deflt
	}
	if ref == nil {
		return Signal{}, fmt.Errorf("%s: control plane selected action %q not declared by table %s",
			pos, call.Action, tv.name)
	}
	if !ref.resolved {
		return Signal{}, fmt.Errorf("%s: action %q not in scope of table %s", pos, ref.name, tv.name)
	}
	av := m.get(ref.ref)
	var extra []Value
	if clos, ok := av.(*cClos); ok {
		bound := len(ref.args)
		need := len(clos.fn.Params) - bound
		if need < 0 || len(call.Args) < need {
			return Signal{}, fmt.Errorf("%s: control plane supplied %d args for %s, need %d",
				pos, len(call.Args), ref.name, need)
		}
		if need > 0 {
			extra = make([]Value, need)
			for i := 0; i < need; i++ {
				p := clos.fn.Params[bound+i]
				extra[i] = uintToScalar(call.Args[i], p.Type.T)
			}
		}
	}
	_, sig, err := m.invoke(pos, av, ref.args, extra)
	if err != nil {
		return Signal{}, err
	}
	if sig.Kind == SigExit {
		return sig, nil
	}
	return Signal{Kind: SigCont}, nil
}

// ---------------------------------------------------------------------------
// Compiled l-values

// evalIdx evaluates the l-value's index expressions onto m.idxs, returning
// the base offset of its window. The caller truncates m.idxs back when the
// l-value is done (assignments immediately; call writebacks after copy-out).
func (lv *cLValue) evalIdx(m *Machine) (int, error) {
	base := len(m.idxs)
	for i := range lv.path {
		acc := &lv.path[i]
		if acc.idx == nil {
			continue
		}
		iv, err := acc.idx(m)
		if err != nil {
			m.idxs = m.idxs[:base]
			return base, err
		}
		n, err := toIndex(iv)
		if err != nil {
			m.idxs = m.idxs[:base]
			return base, errors.New(at(acc.idxPos) + err.Error())
		}
		m.idxs = append(m.idxs, n)
	}
	return base, nil
}

// read mirrors readLValue: project along the path and return a deep copy.
func (lv *cLValue) read(m *Machine, idxBase int) (Value, error) {
	if lv.baseErr != "" {
		return nil, errors.New(lv.baseErr)
	}
	v := m.get(lv.ref)
	k := idxBase
	for i := range lv.path {
		acc := &lv.path[i]
		if acc.idx == nil {
			f := fieldAt(fieldsOf(v), acc.pos, acc.field)
			if f == nil {
				return nil, errors.New(at(lv.pos) + noField(v, acc.field))
			}
			v = f.Val
			continue
		}
		var err error
		v, err = project(v, accessor{index: m.idxs[k]})
		k++
		if err != nil {
			return nil, errors.New(at(lv.pos) + err.Error())
		}
	}
	return Copy(v), nil
}

// fieldsOf returns the field slots of a record or header value, nil for
// any other value.
func fieldsOf(v Value) []NamedValue {
	switch v := v.(type) {
	case *RecordVal:
		return v.Fields
	case *HeaderVal:
		return v.Fields
	}
	return nil
}

// fieldAt returns the slot of the named field in fs: the one at its
// compiled position when that is known (≥ 0) and in range, otherwise the
// first by name, as the interpreter finds it. nil means fs has no such
// field.
func fieldAt(fs []NamedValue, pos int, name string) *NamedValue {
	if pos >= 0 && pos < len(fs) {
		return &fs[pos]
	}
	return fieldSlot(fs, name)
}

// noField is project's missing-field message.
func noField(v Value, field string) string {
	return fmt.Sprintf("value %s has no field %q", v, field)
}

// write mirrors writeLValue's observable behavior. Globals update
// functionally (their root trees alias the Compiled template shared by
// every machine); everything else mutates the slot's tree in place, which
// is safe because slot trees are private to their slot: every leaf store
// deep-copies composites (storeValue), every init and copy-in copies, and
// RunIndexed callers lend the argument trees for the run.
func (lv *cLValue) write(m *Machine, idxBase int, nv Value) error {
	if lv.baseErr != "" {
		return errors.New(lv.baseErr)
	}
	if len(lv.path) == 0 || lv.ref.region == rGlobal {
		old := m.get(lv.ref)
		updated, err := lv.update(m, old, 0, idxBase, nv)
		if err != nil {
			return errors.New(at(lv.pos) + err.Error())
		}
		m.set(lv.ref, updated)
		return nil
	}
	v := m.get(lv.ref)
	k := idxBase
	for pi := range lv.path {
		acc := &lv.path[pi]
		last := pi == len(lv.path)-1
		if acc.idx == nil {
			slot := fieldAt(fieldsOf(v), acc.pos, acc.field)
			if slot == nil {
				return errors.New(at(lv.pos) + noField(v, acc.field))
			}
			if last {
				slot.Val = storeValue(slot.Val, nv)
				return nil
			}
			v = slot.Val
			continue
		}
		st, ok := v.(*StackVal)
		if !ok {
			return errors.New(at(lv.pos) + fmt.Sprintf("value %s is not indexable", v))
		}
		idx := m.idxs[k]
		k++
		if idx < 0 || idx >= len(st.Elems) {
			return nil // out-of-bounds write: havoc, dropped
		}
		if last {
			st.Elems[idx] = storeValue(st.Elems[idx], nv)
			return nil
		}
		v = st.Elems[idx]
	}
	return nil
}

// own returns a value safe to install as a slot root: composites are
// deep-copied (they may alias another slot's tree), immutable scalars,
// closures, and tables pass through.
func own(v Value) Value {
	switch v.(type) {
	case *RecordVal, *HeaderVal, *StackVal:
		return Copy(v)
	default:
		return v
	}
}

// storeValue is the leaf store: bit writes adapt to the destination's
// declared width (mirroring updateAlong), and composites are deep-copied
// so slot trees never share structure.
func storeValue(old, nv Value) Value {
	if bv, ok := old.(BitVal); ok {
		if iv, ok2 := nv.(IntVal); ok2 {
			return BoxBit(bv.W, uint64(iv))
		}
		if b2, ok2 := nv.(BitVal); ok2 {
			return BoxBit(bv.W, b2.V)
		}
	}
	return Copy(nv)
}

// update is updateAlong over the compiled path; pi walks the accessors and
// k walks the evaluated-index window.
func (lv *cLValue) update(m *Machine, v Value, pi, k int, nv Value) (Value, error) {
	if pi == len(lv.path) {
		if bv, ok := v.(BitVal); ok {
			if iv, ok2 := nv.(IntVal); ok2 {
				return BoxBit(bv.W, uint64(iv)), nil
			}
			if b2, ok2 := nv.(BitVal); ok2 {
				return BoxBit(bv.W, b2.V), nil
			}
		}
		return Copy(nv), nil
	}
	acc := &lv.path[pi]
	if acc.idx == nil {
		switch v := v.(type) {
		case *RecordVal:
			fs := make([]NamedValue, len(v.Fields))
			copy(fs, v.Fields)
			slot := fieldAt(fs, acc.pos, acc.field)
			if slot == nil {
				return nil, errors.New(noField(v, acc.field))
			}
			inner, err := lv.update(m, slot.Val, pi+1, k, nv)
			if err != nil {
				return nil, err
			}
			slot.Val = inner
			return &RecordVal{fs}, nil
		case *HeaderVal:
			fs := make([]NamedValue, len(v.Fields))
			copy(fs, v.Fields)
			slot := fieldAt(fs, acc.pos, acc.field)
			if slot == nil {
				return nil, errors.New(noField(v, acc.field))
			}
			inner, err := lv.update(m, slot.Val, pi+1, k, nv)
			if err != nil {
				return nil, err
			}
			slot.Val = inner
			return &HeaderVal{v.Valid, fs}, nil
		default:
			return nil, errors.New(noField(v, acc.field))
		}
	}
	st, ok := v.(*StackVal)
	if !ok {
		return nil, fmt.Errorf("value %s is not indexable", v)
	}
	idx := m.idxs[k]
	if idx < 0 || idx >= len(st.Elems) {
		return v, nil // out-of-bounds write: havoc, dropped
	}
	es := make([]Value, len(st.Elems))
	copy(es, st.Elems)
	inner, err := lv.update(m, es[idx], pi+1, k+1, nv)
	if err != nil {
		return nil, err
	}
	es[idx] = inner
	return &StackVal{es}, nil
}

// ---------------------------------------------------------------------------
// Arithmetic, mirroring evalIntOp/evalBitOp; the position and operator
// are formatted only on the (cold) error paths, and results are boxed
// through the BitVal cache.

func intOp(op token.Kind, pos token.Pos, a, b int64) (Value, error) {
	switch op {
	case token.PLUS:
		return IntVal(a + b), nil
	case token.MINUS:
		return IntVal(a - b), nil
	case token.STAR:
		return IntVal(a * b), nil
	case token.SLASH:
		if b == 0 {
			return nil, errors.New(at(pos) + "division by zero")
		}
		return IntVal(a / b), nil
	case token.PERCENT:
		if b == 0 {
			return nil, errors.New(at(pos) + "modulo by zero")
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
		return nil, errors.New(at(pos) + "operator " + op.String() + " undefined on int")
	}
}

func bitOp(op token.Kind, pos token.Pos, a, b BitVal) (Value, error) {
	w := a.W
	switch op {
	case token.PLUS:
		return BoxBit(w, a.V+b.V), nil
	case token.MINUS:
		return BoxBit(w, a.V-b.V), nil
	case token.STAR:
		return BoxBit(w, a.V*b.V), nil
	case token.SLASH:
		if b.V == 0 {
			return nil, errors.New(at(pos) + "division by zero")
		}
		return BoxBit(w, a.V/b.V), nil
	case token.PERCENT:
		if b.V == 0 {
			return nil, errors.New(at(pos) + "modulo by zero")
		}
		return BoxBit(w, a.V%b.V), nil
	case token.LT:
		return BoolVal(a.V < b.V), nil
	case token.GT:
		return BoolVal(a.V > b.V), nil
	case token.LEQ:
		return BoolVal(a.V <= b.V), nil
	case token.GEQ:
		return BoolVal(a.V >= b.V), nil
	case token.AMP:
		return BoxBit(w, a.V&b.V), nil
	case token.PIPE:
		return BoxBit(w, a.V|b.V), nil
	case token.CARET:
		return BoxBit(w, a.V^b.V), nil
	case token.SHL:
		if b.V >= uint64(w) {
			return BoxBit(w, 0), nil
		}
		return BoxBit(w, a.V<<b.V), nil
	case token.SHR:
		if b.V >= uint64(w) {
			return BoxBit(w, 0), nil
		}
		return BoxBit(w, a.V>>b.V), nil
	default:
		return nil, fmt.Errorf("%soperator %s undefined on bit<%d>", at(pos), op, w)
	}
}
