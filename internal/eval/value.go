// Package eval implements a big-step interpreter for the Core P4 fragment,
// following the petr4 operational semantics the paper builds on:
//
//	⟨C, Δ, μ, ε, exp⟩  ⇓ ⟨μ′, val⟩
//	⟨C, Δ, μ, ε, stmt⟩ ⇓ ⟨μ′, ε′, sig⟩
//	⟨C, Δ, μ, ε, decl⟩ ⇓ ⟨Δ′, μ′, ε′, sig⟩
//
// with a store μ mapping locations to values, environments ε mapping names
// to locations, the control plane C supplied by internal/controlplane, the
// copy-in/copy-out calling convention of Appendix H, and l-value evaluation
// and writing per Appendices F and G. Signals are cont, exit, and
// return(val).
//
// The interpreter exists to validate the paper's soundness theorem
// empirically: internal/ni runs well-typed programs on pairs of
// low-equivalent states and checks that the observable outputs agree.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/types"
)

// Value is a runtime value. The set of implementations is closed.
type Value interface {
	valueMarker()
	String() string
}

// BoolVal is a boolean value.
type BoolVal bool

// IntVal is an arbitrary-precision integer value (modelled as int64; the
// paper's programs stay well within range).
type IntVal int64

// BitVal is an n-bit unsigned value; V is always masked to W bits.
type BitVal struct {
	W int
	V uint64
}

// UnitVal is the unit value.
type UnitVal struct{}

// NamedValue pairs a field name with its value.
type NamedValue struct {
	Name string
	Val  Value
}

// RecordVal is a struct/record value with ordered fields.
type RecordVal struct {
	Fields []NamedValue
}

// HeaderVal is a header value: a validity bit plus ordered fields.
type HeaderVal struct {
	Valid  bool
	Fields []NamedValue
}

// StackVal is a header-stack/array value.
type StackVal struct {
	Elems []Value
}

// MatchKindVal is a match_kind member value (e.g. "exact").
type MatchKindVal string

// ClosVal is a function/action closure: the captured environment, the
// parameters, the return type, and the body (Appendix C's clos(ε, ...)).
type ClosVal struct {
	Name string
	Env  *Env
	Fn   *types.Func
	Body Body
}

// Body abstracts the closure body so value.go need not import the AST;
// interp.go supplies the concrete implementation.
type Body interface{ bodyMarker() }

// TableVal is a table closure: the captured environment plus the declared
// keys and action references (Appendix C's table_l(ε, ...)).
type TableVal struct {
	Name string
	Env  *Env
	Decl Body
}

// BuiltinVal names a builtin function (mark_to_drop, NoAction).
type BuiltinVal string

func (BoolVal) valueMarker()      {}
func (IntVal) valueMarker()       {}
func (BitVal) valueMarker()       {}
func (UnitVal) valueMarker()      {}
func (*RecordVal) valueMarker()   {}
func (*HeaderVal) valueMarker()   {}
func (*StackVal) valueMarker()    {}
func (MatchKindVal) valueMarker() {}
func (*ClosVal) valueMarker()     {}
func (*TableVal) valueMarker()    {}
func (BuiltinVal) valueMarker()   {}

func (v BoolVal) String() string { return fmt.Sprintf("%t", bool(v)) }
func (v IntVal) String() string  { return fmt.Sprintf("%d", int64(v)) }
func (v BitVal) String() string  { return fmt.Sprintf("%dw%d", v.W, v.V) }
func (UnitVal) String() string   { return "()" }

func (v *RecordVal) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, f := range v.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", f.Name, f.Val)
	}
	b.WriteString("}")
	return b.String()
}

func (v *HeaderVal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "header{valid = %t", v.Valid)
	for _, f := range v.Fields {
		fmt.Fprintf(&b, ", %s = %s", f.Name, f.Val)
	}
	b.WriteString("}")
	return b.String()
}

func (v *StackVal) String() string {
	var b strings.Builder
	b.WriteString("stack[")
	for i, e := range v.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("]")
	return b.String()
}

func (v MatchKindVal) String() string { return string(v) }
func (v *ClosVal) String() string     { return "clos(" + v.Name + ")" }
func (v *TableVal) String() string    { return "table(" + v.Name + ")" }
func (v BuiltinVal) String() string   { return "builtin(" + string(v) + ")" }

// Mask returns v truncated to w bits.
func Mask(w int, v uint64) uint64 {
	if w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}

// NewBit returns a masked BitVal.
func NewBit(w int, v uint64) BitVal { return BitVal{W: w, V: Mask(w, v)} }

// bitBox holds pre-boxed BitVal interface values for narrow widths and
// small values. A BitVal is a two-word struct, so every conversion to the
// Value interface heap-allocates; the compiled evaluator produces one per
// arithmetic result, which dominates allocation on the NI hot path.
// BitVal compares by value (ValueEqual and ==), so sharing boxes is
// unobservable.
var bitBox [17][]Value

func init() {
	for w := 1; w <= 16; w++ {
		n := 256
		if w < 8 {
			n = 1 << uint(w)
		}
		s := make([]Value, n)
		for v := range s {
			s[v] = BitVal{W: w, V: uint64(v)}
		}
		bitBox[w] = s
	}
}

// BoxBit is NewBit returning an interface value, served from the
// pre-boxed cache when possible.
func BoxBit(w int, v uint64) Value {
	v = Mask(w, v)
	if w >= 1 && w <= 16 && v < uint64(len(bitBox[w])) {
		return bitBox[w][v]
	}
	return BitVal{W: w, V: v}
}

// field returns a pointer to the named field's slot, or nil.
func fieldSlot(fs []NamedValue, name string) *NamedValue {
	for i := range fs {
		if fs[i].Name == name {
			return &fs[i]
		}
	}
	return nil
}

// FieldOrderMismatch walks v along its declared type t and describes the
// first record or header whose field names are not exactly t's, in t's
// order — `.eth: field 0 is "src", declared "dst"`, say. "" means every
// compiled field position reads the field it names, which is what the
// compiled machine relies on. Values at a type without fields, and
// values of another kind than t, are not mismatches: positional access
// never applies to them.
func FieldOrderMismatch(v Value, t types.Type) string {
	if st, ok := t.(*types.Stack); ok {
		if sv, ok := v.(*StackVal); ok {
			for i, e := range sv.Elems {
				if msg := FieldOrderMismatch(e, st.Elem.T); msg != "" {
					return fmt.Sprintf("[%d]%s", i, msg)
				}
			}
		}
		return ""
	}
	decl := types.Fields(t)
	if len(decl) == 0 {
		return ""
	}
	var fs []NamedValue
	switch v := v.(type) {
	case *RecordVal:
		fs = v.Fields
	case *HeaderVal:
		fs = v.Fields
	default:
		return ""
	}
	if len(fs) != len(decl) {
		return fmt.Sprintf(": %d fields, declared %d", len(fs), len(decl))
	}
	for i, f := range fs {
		if f.Name != decl[i].Name {
			return fmt.Sprintf(": field %d is %q, declared %q", i, f.Name, decl[i].Name)
		}
		if msg := FieldOrderMismatch(f.Val, decl[i].Type.T); msg != "" {
			return "." + f.Name + msg
		}
	}
	return ""
}

// Copy returns a deep copy of v; closures and tables are shared (they are
// immutable, per the semantics' closure-preservation lemmas).
func Copy(v Value) Value {
	switch v := v.(type) {
	case *RecordVal:
		fs := make([]NamedValue, len(v.Fields))
		for i, f := range v.Fields {
			fs[i] = NamedValue{f.Name, Copy(f.Val)}
		}
		return &RecordVal{fs}
	case *HeaderVal:
		fs := make([]NamedValue, len(v.Fields))
		for i, f := range v.Fields {
			fs[i] = NamedValue{f.Name, Copy(f.Val)}
		}
		return &HeaderVal{v.Valid, fs}
	case *StackVal:
		es := make([]Value, len(v.Elems))
		for i, e := range v.Elems {
			es[i] = Copy(e)
		}
		return &StackVal{es}
	default:
		return v
	}
}

// ValueEqual reports deep structural equality of two values. Closures and
// tables compare by identity.
func ValueEqual(a, b Value) bool {
	switch a := a.(type) {
	case BoolVal:
		b2, ok := b.(BoolVal)
		return ok && a == b2
	case IntVal:
		b2, ok := b.(IntVal)
		return ok && a == b2
	case BitVal:
		b2, ok := b.(BitVal)
		return ok && a == b2
	case UnitVal:
		_, ok := b.(UnitVal)
		return ok
	case MatchKindVal:
		b2, ok := b.(MatchKindVal)
		return ok && a == b2
	case *RecordVal:
		b2, ok := b.(*RecordVal)
		if !ok || len(a.Fields) != len(b2.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b2.Fields[i].Name || !ValueEqual(a.Fields[i].Val, b2.Fields[i].Val) {
				return false
			}
		}
		return true
	case *HeaderVal:
		b2, ok := b.(*HeaderVal)
		if !ok || a.Valid != b2.Valid || len(a.Fields) != len(b2.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b2.Fields[i].Name || !ValueEqual(a.Fields[i].Val, b2.Fields[i].Val) {
				return false
			}
		}
		return true
	case *StackVal:
		b2, ok := b.(*StackVal)
		if !ok || len(a.Elems) != len(b2.Elems) {
			return false
		}
		for i := range a.Elems {
			if !ValueEqual(a.Elems[i], b2.Elems[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// Zero returns the init_Δ τ default value of a semantic type: false, 0,
// invalid headers with zeroed fields, etc.
func Zero(t types.Type) Value {
	switch t := t.(type) {
	case types.Bool:
		return BoolVal(false)
	case types.Int:
		return IntVal(0)
	case types.Bit:
		return BoxBit(t.W, 0)
	case types.Unit:
		return UnitVal{}
	case *types.Record:
		fs := make([]NamedValue, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = NamedValue{f.Name, Zero(f.Type.T)}
		}
		return &RecordVal{fs}
	case *types.Header:
		fs := make([]NamedValue, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = NamedValue{f.Name, Zero(f.Type.T)}
		}
		return &HeaderVal{Valid: true, Fields: fs}
	case *types.Stack:
		es := make([]Value, t.Size)
		for i := range es {
			es[i] = Zero(t.Elem.T)
		}
		return &StackVal{es}
	case *types.MatchKind:
		if len(t.Members) > 0 {
			return MatchKindVal(t.Members[0])
		}
		return MatchKindVal("exact")
	default:
		return UnitVal{}
	}
}

// Random returns a uniformly random value of type t (headers are valid).
// Used by the non-interference harness.
func Random(t types.Type, r *rand.Rand) Value {
	return RandomFrom(t, r)
}

// ---------------------------------------------------------------------------
// Store and environment

// Loc is a store location.
type Loc int

// Store is the memory store μ.
type Store struct {
	m    map[Loc]Value
	next Loc
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: map[Loc]Value{}} }

// Alloc places v at a fresh location.
func (s *Store) Alloc(v Value) Loc {
	l := s.next
	s.next++
	s.m[l] = v
	return l
}

// Get reads a location; it panics on a dangling location (an interpreter
// bug, not a program error).
func (s *Store) Get(l Loc) Value {
	v, ok := s.m[l]
	if !ok {
		panic(fmt.Sprintf("eval: dangling location %d", l))
	}
	return v
}

// Set overwrites a location.
func (s *Store) Set(l Loc, v Value) {
	if _, ok := s.m[l]; !ok {
		panic(fmt.Sprintf("eval: write to unallocated location %d", l))
	}
	s.m[l] = v
}

// Len returns the number of allocated locations.
func (s *Store) Len() int { return len(s.m) }

// Env is the environment ε mapping names to locations, with lexical
// scoping.
type Env struct {
	parent *Env
	names  map[string]Loc
}

// NewEnv returns an empty top-level environment.
func NewEnv() *Env { return &Env{names: map[string]Loc{}} }

// Child returns a nested scope.
func (e *Env) Child() *Env { return &Env{parent: e, names: map[string]Loc{}} }

// Bind binds name to a location in the current scope.
func (e *Env) Bind(name string, l Loc) { e.names[name] = l }

// Lookup resolves name through the scope chain.
func (e *Env) Lookup(name string) (Loc, bool) {
	for s := e; s != nil; s = s.parent {
		if l, ok := s.names[name]; ok {
			return l, true
		}
	}
	return 0, false
}

// Names returns all visible names, innermost shadowing outer, sorted.
func (e *Env) Names() []string {
	seen := map[string]bool{}
	for s := e; s != nil; s = s.parent {
		for n := range s.names {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
