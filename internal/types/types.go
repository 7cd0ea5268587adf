// Package types defines the semantic types of Core P4 (Figure 3 of the
// P4BID paper) lifted to security types (Figure 4).
//
// A security type is a pair ⟨τ, χ⟩ of an ordinary type and a label from the
// configured lattice. For composite types (records, headers, stacks,
// match_kinds, tables, functions) the label is tracked inside the type —
// per-field for records and headers — and the outer label is ⊥, exactly as
// in Figure 4.
package types

import (
	"fmt"
	"strings"

	"repro/internal/lattice"
)

// Type is a semantic Core P4 type τ. The set of implementations is closed.
type Type interface {
	typeMarker()
	String() string
}

// SecType is the security type ⟨τ, χ⟩.
type SecType struct {
	T Type
	L lattice.Label
}

// String renders ⟨τ, χ⟩.
func (s SecType) String() string {
	if s.L.IsZero() {
		return s.T.String()
	}
	return "<" + s.T.String() + ", " + s.L.String() + ">"
}

// IsZero reports whether s is the zero SecType.
func (s SecType) IsZero() bool { return s.T == nil }

// Bool is the type bool.
type Bool struct{}

// Int is the arbitrary-precision integer type.
type Int struct{}

// Bit is bit<W>.
type Bit struct{ W int }

// Unit is the unit (void) type.
type Unit struct{}

// Field is a named field of a record or header, with its security type.
type Field struct {
	Name string
	Type SecType
}

// Record is the record/struct type { f: ρ }.
type Record struct{ Fields []Field }

// Header is the header type header { f: ρ }.
type Header struct{ Fields []Field }

// Stack is the header-stack/array type ρ[n].
type Stack struct {
	Elem SecType
	Size int
}

// MatchKind is the match_kind enumeration type.
type MatchKind struct{ Members []string }

// Table is the table type table(pc_tbl): applying the table may write only
// at or above PCTbl.
type Table struct{ PCTbl lattice.Label }

// Param is one function/action parameter: direction d, security type, and
// whether the argument is control-plane-supplied (directionless parameters
// of actions, bound when the control plane installs an entry).
type Param struct {
	Name      string
	Dir       Dir
	Type      SecType
	CtrlPlane bool
}

// Dir is a semantic parameter direction.
type Dir int

// Directions. Directionless surface parameters become In with CtrlPlane set.
const (
	In Dir = iota
	Out
	InOut
)

// String renders the direction keyword.
func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "inout"
	}
}

// Func is the function/action arrow type d ρ --pc_fn--> ρ_ret. PCFn is the
// lower bound on the labels of everything the body writes; calling the
// function in a context pc requires pc ⊑ PCFn (rule T-Call).
type Func struct {
	Params   []Param
	PCFn     lattice.Label
	Ret      SecType // ⟨unit, ⊥⟩ for actions
	IsAction bool
}

func (Bool) typeMarker()       {}
func (Int) typeMarker()        {}
func (Bit) typeMarker()        {}
func (Unit) typeMarker()       {}
func (*Record) typeMarker()    {}
func (*Header) typeMarker()    {}
func (*Stack) typeMarker()     {}
func (*MatchKind) typeMarker() {}
func (*Table) typeMarker()     {}
func (*Func) typeMarker()      {}

func (Bool) String() string  { return "bool" }
func (Int) String() string   { return "int" }
func (b Bit) String() string { return fmt.Sprintf("bit<%d>", b.W) }
func (Unit) String() string  { return "unit" }

func fieldsString(fs []Field) string {
	var b strings.Builder
	for i, f := range fs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.Name)
		b.WriteString(": ")
		b.WriteString(f.Type.String())
	}
	return b.String()
}

func (r *Record) String() string { return "{" + fieldsString(r.Fields) + "}" }
func (h *Header) String() string { return "header{" + fieldsString(h.Fields) + "}" }
func (s *Stack) String() string  { return s.Elem.String() + fmt.Sprintf("[%d]", s.Size) }

func (m *MatchKind) String() string {
	return "match_kind{" + strings.Join(m.Members, ", ") + "}"
}

func (t *Table) String() string { return fmt.Sprintf("table(%s)", t.PCTbl) }

func (f *Func) String() string {
	var b strings.Builder
	if f.IsAction {
		b.WriteString("action(")
	} else {
		b.WriteString("function(")
	}
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.CtrlPlane {
			b.WriteString("@ctrl ")
		} else {
			b.WriteString(p.Dir.String())
			b.WriteString(" ")
		}
		b.WriteString(p.Type.String())
	}
	fmt.Fprintf(&b, ") --%s--> %s", f.PCFn, f.Ret)
	return b.String()
}

// Field returns the field with the given name of a record or header type,
// or false if t has no such field.
func FieldOf(t Type, name string) (Field, bool) {
	for _, f := range Fields(t) {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Fields returns the fields of a record or header type, in declaration
// order, and nil for any other type.
func Fields(t Type) []Field {
	switch t := t.(type) {
	case *Record:
		return t.Fields
	case *Header:
		return t.Fields
	}
	return nil
}

// Equal reports structural equality of types, including security labels of
// nested fields. Function types compare parameter directions, types, PCFn,
// and return types.
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case Bool:
		_, ok := b.(Bool)
		return ok
	case Int:
		_, ok := b.(Int)
		return ok
	case Unit:
		_, ok := b.(Unit)
		return ok
	case Bit:
		b2, ok := b.(Bit)
		return ok && a.W == b2.W
	case *Record:
		b2, ok := b.(*Record)
		return ok && fieldsEqual(a.Fields, b2.Fields)
	case *Header:
		b2, ok := b.(*Header)
		return ok && fieldsEqual(a.Fields, b2.Fields)
	case *Stack:
		b2, ok := b.(*Stack)
		return ok && a.Size == b2.Size && SecEqual(a.Elem, b2.Elem)
	case *MatchKind:
		b2, ok := b.(*MatchKind)
		if !ok || len(a.Members) != len(b2.Members) {
			return false
		}
		for i := range a.Members {
			if a.Members[i] != b2.Members[i] {
				return false
			}
		}
		return true
	case *Table:
		b2, ok := b.(*Table)
		return ok && a.PCTbl == b2.PCTbl
	case *Func:
		b2, ok := b.(*Func)
		if !ok || len(a.Params) != len(b2.Params) || a.PCFn != b2.PCFn ||
			a.IsAction != b2.IsAction || !SecEqual(a.Ret, b2.Ret) {
			return false
		}
		for i := range a.Params {
			p, q := a.Params[i], b2.Params[i]
			if p.Dir != q.Dir || p.CtrlPlane != q.CtrlPlane || !SecEqual(p.Type, q.Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func fieldsEqual(a, b []Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !SecEqual(a[i].Type, b[i].Type) {
			return false
		}
	}
	return true
}

// SecEqual reports equality of security types: equal base types and equal
// labels.
func SecEqual(a, b SecType) bool {
	return a.L == b.L && Equal(a.T, b.T)
}

// BaseEqual reports equality of the underlying types of two security types,
// ignoring all security labels (used by the base, non-IFC checker).
func BaseEqual(a, b Type) bool {
	return Equal(Strip(a), Strip(b))
}

// Strip returns a copy of t with every security label replaced by the zero
// label, for label-insensitive comparisons.
func Strip(t Type) Type {
	switch t := t.(type) {
	case *Record:
		fs := make([]Field, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = Field{f.Name, SecType{Strip(f.Type.T), lattice.Label{}}}
		}
		return &Record{fs}
	case *Header:
		fs := make([]Field, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = Field{f.Name, SecType{Strip(f.Type.T), lattice.Label{}}}
		}
		return &Header{fs}
	case *Stack:
		return &Stack{SecType{Strip(t.Elem.T), lattice.Label{}}, t.Size}
	case *Table:
		return &Table{lattice.Label{}}
	case *Func:
		ps := make([]Param, len(t.Params))
		for i, p := range t.Params {
			ps[i] = Param{p.Name, p.Dir, SecType{Strip(p.Type.T), lattice.Label{}}, p.CtrlPlane}
		}
		return &Func{ps, lattice.Label{}, SecType{Strip(t.Ret.T), lattice.Label{}}, t.IsAction}
	default:
		return t
	}
}

// IsBase reports whether t is a base type ρ (Figure 3): bool, int, bit<n>,
// unit, record, header, stack, or match_kind — i.e., not a table or
// function type.
func IsBase(t Type) bool {
	switch t.(type) {
	case *Table, *Func:
		return false
	default:
		return true
	}
}

// IsScalar reports whether t is a scalar value type whose values are
// compared directly in the non-interference relation (Definition C.6's
// first case): bool, int, bit<n>, unit, or match_kind.
func IsScalar(t Type) bool {
	switch t.(type) {
	case Bool, Int, Bit, Unit, *MatchKind:
		return true
	default:
		return false
	}
}

// Env is the typing context Γ of one check: a single stack of bindings,
// innermost last, with the start of the innermost scope. Open starts a
// scope and Close drops it, so entering and leaving a block allocates
// nothing. Inner bindings shadow outer ones until their scope closes.
type Env struct {
	binds []binding
	start int // position of the innermost scope's first binding
	// index maps each name to its latest binding once the stack has
	// outgrown a linear scan (indexAt bindings); it is kept from then on.
	index map[string]int
}

type binding struct {
	name string
	t    SecType
	// shadow is the position of the binding of name that this one hides
	// in index, or -1; Close restores it. Unused while index is nil.
	shadow int
}

// indexAt is the stack depth from which Env keeps its name index: below
// it a backward scan over the bindings beats hashing the name.
const indexAt = 24

// NewEnv returns an empty top-level typing context, with room for the
// bindings of a small program.
func NewEnv() *Env { return &Env{binds: make([]binding, 0, 32)} }

// Open starts an inner scope and returns the outer one, to be handed back
// to Close.
func (e *Env) Open() (outer int) {
	outer = e.start
	e.start = len(e.binds)
	return outer
}

// Close drops the innermost scope's bindings and makes outer, the value
// of the matching Open, the innermost scope again.
func (e *Env) Close(outer int) {
	if e.index != nil {
		for i := len(e.binds) - 1; i >= e.start; i-- {
			if b := &e.binds[i]; b.shadow < 0 {
				delete(e.index, b.name)
			} else {
				e.index[b.name] = b.shadow
			}
		}
	}
	e.binds = e.binds[:e.start]
	e.start = outer
}

// Bind declares or shadows name at type t in the current scope.
func (e *Env) Bind(name string, t SecType) {
	b := binding{name: name, t: t, shadow: -1}
	if e.index != nil {
		if i, ok := e.index[name]; ok {
			b.shadow = i
		}
		e.index[name] = len(e.binds)
	}
	e.binds = append(e.binds, b)
	if e.index == nil && len(e.binds) > indexAt {
		e.buildIndex()
	}
}

func (e *Env) buildIndex() {
	e.index = make(map[string]int, 2*len(e.binds))
	for i := range e.binds {
		b := &e.binds[i]
		b.shadow = -1
		if j, ok := e.index[b.name]; ok {
			b.shadow = j
		}
		e.index[b.name] = i
	}
}

// Lookup resolves name to its innermost binding.
func (e *Env) Lookup(name string) (SecType, bool) {
	if e.index != nil {
		if i, ok := e.index[name]; ok {
			return e.binds[i].t, true
		}
		return SecType{}, false
	}
	for i := len(e.binds) - 1; i >= 0; i-- {
		if e.binds[i].name == name {
			return e.binds[i].t, true
		}
	}
	return SecType{}, false
}

// InCurrentScope reports whether name is bound directly in the innermost
// scope (used to reject duplicate declarations without forbidding
// shadowing).
func (e *Env) InCurrentScope(name string) bool {
	if e.index != nil {
		i, ok := e.index[name]
		return ok && i >= e.start
	}
	for i := len(e.binds) - 1; i >= e.start; i-- {
		if e.binds[i].name == name {
			return true
		}
	}
	return false
}

// TypeDefs is the type-definition context Δ mapping type names to their
// definitions. Definitions are stored fully resolved, so unfolding
// (Δ ⊢ τ ⇝ τ′) is a single lookup. A program defines a handful of types,
// so Δ is a list searched in order; the zero value is an empty Δ, and the
// first few definitions need no allocation.
type TypeDefs struct {
	defs []typeDef
	buf  [4]typeDef
}

type typeDef struct {
	name string
	t    SecType
}

// NewTypeDefs returns an empty Δ.
func NewTypeDefs() *TypeDefs { return new(TypeDefs) }

// Define records a type name. It returns an error on redefinition.
func (d *TypeDefs) Define(name string, t SecType) error {
	if _, dup := d.Lookup(name); dup {
		return fmt.Errorf("type %s redefined", name)
	}
	if d.defs == nil {
		d.defs = d.buf[:0]
	}
	d.defs = append(d.defs, typeDef{name, t})
	return nil
}

// Lookup resolves a type name.
func (d *TypeDefs) Lookup(name string) (SecType, bool) {
	for i := range d.defs {
		if d.defs[i].name == name {
			return d.defs[i].t, true
		}
	}
	return SecType{}, false
}

// Names returns the defined type names, in definition order.
func (d *TypeDefs) Names() []string {
	out := make([]string, len(d.defs))
	for i, def := range d.defs {
		out[i] = def.name
	}
	return out
}
