// Package resolve turns syntactic types into semantic security types and
// builds the type-definition context Δ from a program's type declarations.
// It is shared by the base (label-insensitive) checker in internal/basecheck
// and the IFC checker in internal/core.
//
// Resolution implements the unfolding judgement Δ ⊢ τ ⇝ τ′ of the paper:
// named types are looked up in Δ and replaced by their (already resolved)
// definitions, so downstream code only ever sees structural types.
package resolve

import (
	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/lattice"
	"repro/internal/token"
	"repro/internal/types"
)

// Resolver resolves syntactic types against a lattice and a Δ.
type Resolver struct {
	Lat   lattice.Lattice
	Defs  *types.TypeDefs
	Diags *diag.List
	// MatchKinds accumulates declared match_kind members (exact, lpm, ...).
	MatchKinds []string
}

// builtinMatchKinds is every resolver's initial MatchKinds. Its length is
// its capacity, so a program's own match_kind members are appended to a
// copy.
var builtinMatchKinds = [...]string{"exact", "lpm", "ternary"}

// New returns a resolver with an empty Δ pre-populated with the builtin
// standard_metadata_t struct and the builtin match kinds exact, lpm, and
// ternary (programs may extend them with their own match_kind declaration).
func New(lat lattice.Lattice, diags *diag.List) *Resolver {
	a := new(struct {
		r    Resolver
		defs types.TypeDefs
	})
	r := &a.r
	*r = Resolver{Lat: lat, Defs: &a.defs, Diags: diags, MatchKinds: builtinMatchKinds[:]}
	low := lat.Bottom()
	std := &types.Record{Fields: []types.Field{
		{Name: "ingress_port", Type: types.SecType{T: types.Bit{W: 9}, L: low}},
		{Name: "egress_spec", Type: types.SecType{T: types.Bit{W: 9}, L: low}},
		{Name: "egress_port", Type: types.SecType{T: types.Bit{W: 9}, L: low}},
		{Name: "priority", Type: types.SecType{T: types.Bit{W: 3}, L: low}},
		{Name: "mcast_grp", Type: types.SecType{T: types.Bit{W: 16}, L: low}},
		{Name: "drop_flag", Type: types.SecType{T: types.Bit{W: 1}, L: low}},
	}}
	_ = r.Defs.Define("standard_metadata_t", types.SecType{T: std, L: low})
	return r
}

// Label resolves a label name against the lattice; the empty name is the
// unannotated default ⊥. Unknown names are reported and ⊥ returned so
// checking can continue.
func (r *Resolver) Label(pos token.Pos, name string) lattice.Label {
	if name == "" {
		return r.Lat.Bottom()
	}
	l, ok := r.Lat.Lookup(name)
	if !ok {
		r.Diags.Errorf(pos, "unknown security label %q in lattice %s", name, r.Lat.Name())
		return r.Lat.Bottom()
	}
	return l
}

// SecType resolves a syntactic security type to a semantic one. Per
// Figure 4, composite types keep ⊥ as their outer label; an annotation on
// a composite type is pushed down onto scalar leaves by joining it with
// each field's own label (a convenience extension: `<hdr_t, high> h` makes
// every field of h at least high).
func (r *Resolver) SecType(t *ast.SecType) types.SecType {
	if t == nil {
		return types.SecType{T: types.Unit{}, L: r.Lat.Bottom()}
	}
	lbl := r.Label(t.P, t.Label)
	// Named types carry their definition's own label (a typedef of
	// <bit<8>, high> stays high when used unannotated); an explicit
	// annotation joins on top of it.
	if nt, ok := t.Base.(*ast.NamedType); ok {
		def, found := r.Defs.Lookup(nt.Name)
		if !found {
			r.Diags.Errorf(nt.P, "unknown type %q", nt.Name)
			return types.SecType{}
		}
		if types.IsScalar(def.T) {
			return types.SecType{T: def.T, L: r.Lat.Join(def.L, lbl)}
		}
		base := def.T
		if t.Label != "" && lbl != r.Lat.Bottom() {
			base = r.raise(base, lbl)
		}
		return types.SecType{T: base, L: r.Lat.Bottom()}
	}
	base := r.Type(t.Base)
	if base == nil {
		return types.SecType{}
	}
	if types.IsScalar(base) {
		return types.SecType{T: base, L: lbl}
	}
	// Composite: outer label ⊥; an explicit annotation is distributed over
	// the leaves.
	if t.Label != "" && lbl != r.Lat.Bottom() {
		base = r.raise(base, lbl)
	}
	return types.SecType{T: base, L: r.Lat.Bottom()}
}

// raise joins lbl onto every scalar leaf of t.
func (r *Resolver) raise(t types.Type, lbl lattice.Label) types.Type {
	switch t := t.(type) {
	case *types.Record:
		fs := make([]types.Field, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = types.Field{Name: f.Name, Type: r.raiseSec(f.Type, lbl)}
		}
		return &types.Record{Fields: fs}
	case *types.Header:
		fs := make([]types.Field, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = types.Field{Name: f.Name, Type: r.raiseSec(f.Type, lbl)}
		}
		return &types.Header{Fields: fs}
	case *types.Stack:
		return &types.Stack{Elem: r.raiseSec(t.Elem, lbl), Size: t.Size}
	default:
		return t
	}
}

func (r *Resolver) raiseSec(s types.SecType, lbl lattice.Label) types.SecType {
	if types.IsScalar(s.T) {
		return types.SecType{T: s.T, L: r.Lat.Join(s.L, lbl)}
	}
	return types.SecType{T: r.raise(s.T, lbl), L: s.L}
}

// Type resolves a syntactic base type, unfolding named types through Δ.
// It reports and returns nil for unknown names.
func (r *Resolver) Type(t ast.Type) types.Type {
	switch t := t.(type) {
	case *ast.BoolType:
		return types.Bool{}
	case *ast.IntType:
		return types.Int{}
	case *ast.BitType:
		return types.Bit{W: t.Width}
	case *ast.VoidType:
		return types.Unit{}
	case *ast.NamedType:
		def, ok := r.Defs.Lookup(t.Name)
		if !ok {
			r.Diags.Errorf(t.P, "unknown type %q", t.Name)
			return nil
		}
		return def.T
	case *ast.StackType:
		elem := r.SecType(t.Elem)
		if elem.IsZero() {
			return nil
		}
		if !types.IsScalar(elem.T) {
			if _, isHdr := elem.T.(*types.Header); !isHdr {
				r.Diags.Errorf(t.P, "stack element must be a scalar or header type, got %s", elem.T)
				return nil
			}
		}
		return &types.Stack{Elem: elem, Size: t.Size}
	default:
		r.Diags.Errorf(t.Pos(), "unsupported type syntax")
		return nil
	}
}

// CollectTypeDecls processes the program's type declarations in order,
// populating Δ and the match-kind member list. Header and struct fields
// must resolve to base types (Figure 3 requires ρ fields).
func (r *Resolver) CollectTypeDecls(prog *ast.Program) {
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.TypedefDecl:
			st := r.SecType(d.Type)
			if st.IsZero() {
				continue
			}
			if err := r.Defs.Define(d.Name, st); err != nil {
				r.Diags.Errorf(d.P, "%v", err)
			}
		case *ast.HeaderDecl:
			fields, ok := r.fields(d.Fields)
			if !ok {
				continue
			}
			st := types.SecType{T: &types.Header{Fields: fields}, L: r.Lat.Bottom()}
			if err := r.Defs.Define(d.Name, st); err != nil {
				r.Diags.Errorf(d.P, "%v", err)
			}
		case *ast.StructDecl:
			fields, ok := r.fields(d.Fields)
			if !ok {
				continue
			}
			st := types.SecType{T: &types.Record{Fields: fields}, L: r.Lat.Bottom()}
			if err := r.Defs.Define(d.Name, st); err != nil {
				r.Diags.Errorf(d.P, "%v", err)
			}
		case *ast.MatchKindDecl:
			r.MatchKinds = append(r.MatchKinds, d.Members...)
		}
	}
}

// fields resolves header/struct fields, checking that each is a base type.
func (r *Resolver) fields(fds []ast.FieldDecl) ([]types.Field, bool) {
	out := make([]types.Field, 0, len(fds))
	ok := true
	for i := range fds {
		fd := &fds[i]
		if declared(fds[:i], fd.Name) {
			r.Diags.Errorf(fd.P, "duplicate field %q", fd.Name)
			ok = false
			continue
		}
		st := r.SecType(fd.Type)
		if st.IsZero() {
			ok = false
			continue
		}
		if !types.IsBase(st.T) {
			r.Diags.Errorf(fd.P, "field %q must have a base type, got %s", fd.Name, st.T)
			ok = false
			continue
		}
		out = append(out, types.Field{Name: fd.Name, Type: st})
	}
	return out, ok
}

// declared reports whether one of fds is named name. A header or struct
// declares a handful of fields, which a scan checks faster than a set.
func declared(fds []ast.FieldDecl, name string) bool {
	for i := range fds {
		if fds[i].Name == name {
			return true
		}
	}
	return false
}

// IsMatchKind reports whether name is a declared match-kind member.
func (r *Resolver) IsMatchKind(name string) bool {
	for _, m := range r.MatchKinds {
		if m == name {
			return true
		}
	}
	return false
}

// MatchKindType returns the semantic match_kind type covering all declared
// members.
func (r *Resolver) MatchKindType() *types.MatchKind {
	return &types.MatchKind{Members: r.MatchKinds}
}

// Builtin is one builtin function bound in the initial Γ.
type Builtin struct {
	Name string
	Type types.SecType
}

// Builtins returns the builtin functions bound in the initial Γ, in a
// fixed order:
//
//	mark_to_drop(inout standard_metadata_t): writes only low metadata
//	    fields, so its pc_fn is ⊥;
//	NoAction(): writes nothing, so its pc_fn is ⊤ (callable anywhere).
func (r *Resolver) Builtins() []Builtin {
	std, _ := r.Defs.Lookup("standard_metadata_t")
	low := r.Lat.Bottom()
	unit := types.SecType{T: types.Unit{}, L: low}
	return []Builtin{
		{"mark_to_drop", types.SecType{T: &types.Func{
			Params:   []types.Param{{Name: "std_meta", Dir: types.InOut, Type: std}},
			PCFn:     low,
			Ret:      unit,
			IsAction: true,
		}, L: low}},
		{"NoAction", types.SecType{T: &types.Func{
			PCFn:     r.Lat.Top(),
			Ret:      unit,
			IsAction: true,
		}, L: low}},
	}
}
