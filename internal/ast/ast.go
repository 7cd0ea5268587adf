// Package ast defines the abstract syntax tree for the Core P4 fragment of
// the P4BID paper (Figure 1), extended with the surface constructs needed to
// express the paper's listings: headers, structs, typedefs, match_kind
// declarations, control blocks with parameters, actions, tables, and the
// security annotations <τ, χ> of Listing 2.
//
// Go has no sum types, so each syntactic category (Expr, Stmt, Decl, Type)
// is an interface with unexported marker methods; the concrete node types
// form the closed set of variants. Every node carries the source position
// of its first token for diagnostics.
package ast

import (
	"strings"

	"repro/internal/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Types (syntactic)

// Type is a syntactic type expression. The checker resolves it (unfolding
// typedefs) to a semantic type in internal/types.
type Type interface {
	Node
	typeNode()
	String() string
}

// BoolType is the type bool.
type BoolType struct{ P token.Pos }

// IntType is the arbitrary-precision integer type int.
type IntType struct{ P token.Pos }

// BitType is bit<Width>.
type BitType struct {
	P     token.Pos
	Width int
}

// VoidType is the unit type (spelled void in function return position).
type VoidType struct{ P token.Pos }

// NamedType refers to a typedef, header, struct, or match_kind by name.
type NamedType struct {
	P    token.Pos
	Name string
}

// StackType is the header-stack / array type Elem[Size].
type StackType struct {
	P    token.Pos
	Elem *SecType
	Size int
}

// SecType is a security-annotated type <Base, Label>. Label is the label
// name to be resolved against the configured lattice; an empty Label means
// the type was written without an annotation and defaults to ⊥.
type SecType struct {
	P     token.Pos
	Base  Type
	Label string // "" = unannotated (defaults to lattice bottom)
}

func (*BoolType) typeNode()  {}
func (*IntType) typeNode()   {}
func (*BitType) typeNode()   {}
func (*VoidType) typeNode()  {}
func (*NamedType) typeNode() {}
func (*StackType) typeNode() {}

func (t *BoolType) Pos() token.Pos  { return t.P }
func (t *IntType) Pos() token.Pos   { return t.P }
func (t *BitType) Pos() token.Pos   { return t.P }
func (t *VoidType) Pos() token.Pos  { return t.P }
func (t *NamedType) Pos() token.Pos { return t.P }
func (t *StackType) Pos() token.Pos { return t.P }
func (t *SecType) Pos() token.Pos   { return t.P }

func (t *BoolType) String() string  { return typeString(t) }
func (t *IntType) String() string   { return typeString(t) }
func (t *BitType) String() string   { return typeString(t) }
func (t *VoidType) String() string  { return typeString(t) }
func (t *NamedType) String() string { return typeString(t) }
func (t *StackType) String() string { return typeString(t) }

// String renders a SecType; unannotated types render as their base.
func (t *SecType) String() string {
	var b strings.Builder
	writeSec(&b, t)
	return b.String()
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression of Figure 1a.
type Expr interface {
	Node
	exprNode()
	String() string
}

// BoolLit is true or false.
type BoolLit struct {
	P   token.Pos
	Val bool
}

// IntLit is an integer literal n or a width-prefixed bit literal n_w.
type IntLit struct {
	P        token.Pos
	Val      uint64
	Width    int  // significant only if HasWidth
	HasWidth bool // true for literals like 8w255
}

// Ident is a variable reference x.
type Ident struct {
	P    token.Pos
	Name string
}

// Unary is a prefix operation: !, -, ~.
type Unary struct {
	P  token.Pos
	Op token.Kind
	X  Expr
}

// Binary is exp1 ⊕ exp2.
type Binary struct {
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// Index is exp1[exp2] (header-stack indexing).
type Index struct {
	P    token.Pos
	X, I Expr
}

// FieldInit is a single f = exp inside a record literal.
type FieldInit struct {
	P     token.Pos
	Name  string
	Value Expr
}

// RecordLit is { f_i = exp_i }.
type RecordLit struct {
	P      token.Pos
	Fields []FieldInit
}

// Member is exp.f (record or header field projection).
type Member struct {
	P     token.Pos
	X     Expr
	Field string
}

// Call is exp1(exp2...) — function or action invocation.
type Call struct {
	P    token.Pos
	Fun  Expr
	Args []Expr
}

func (*BoolLit) exprNode()   {}
func (*IntLit) exprNode()    {}
func (*Ident) exprNode()     {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Index) exprNode()     {}
func (*RecordLit) exprNode() {}
func (*Member) exprNode()    {}
func (*Call) exprNode()      {}

func (e *BoolLit) Pos() token.Pos   { return e.P }
func (e *IntLit) Pos() token.Pos    { return e.P }
func (e *Ident) Pos() token.Pos     { return e.P }
func (e *Unary) Pos() token.Pos     { return e.P }
func (e *Binary) Pos() token.Pos    { return e.P }
func (e *Index) Pos() token.Pos     { return e.P }
func (e *RecordLit) Pos() token.Pos { return e.P }
func (e *Member) Pos() token.Pos    { return e.P }
func (e *Call) Pos() token.Pos      { return e.P }

func (e *BoolLit) String() string   { return exprString(e) }
func (e *IntLit) String() string    { return exprString(e) }
func (e *Ident) String() string     { return exprString(e) }
func (e *Unary) String() string     { return exprString(e) }
func (e *Binary) String() string    { return exprString(e) }
func (e *Index) String() string     { return exprString(e) }
func (e *RecordLit) String() string { return exprString(e) }
func (e *Member) String() string    { return exprString(e) }
func (e *Call) String() string      { return exprString(e) }

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement of Figure 1b.
type Stmt interface {
	Node
	stmtNode()
}

// AssignStmt is lval = exp (written := in the calculus).
type AssignStmt struct {
	P        token.Pos
	LHS, RHS Expr
}

// IfStmt is if (cond) then else els; Else may be nil (empty block).
type IfStmt struct {
	P    token.Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt (else-if), or nil
}

// BlockStmt is { stmt... }.
type BlockStmt struct {
	P     token.Pos
	Stmts []Stmt
}

// ExitStmt is exit.
type ExitStmt struct{ P token.Pos }

// ReturnStmt is return exp; X may be nil for a bare return.
type ReturnStmt struct {
	P token.Pos
	X Expr
}

// ExprStmt is a function or action call in statement position.
type ExprStmt struct {
	P token.Pos
	X Expr
}

// ApplyStmt is a table application t.apply().
type ApplyStmt struct {
	P     token.Pos
	Table Expr
}

// DeclStmt is a local variable declaration statement.
type DeclStmt struct {
	P    token.Pos
	Decl *VarDecl
}

func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*BlockStmt) stmtNode()  {}
func (*ExitStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*ApplyStmt) stmtNode()  {}
func (*DeclStmt) stmtNode()   {}

func (s *AssignStmt) Pos() token.Pos { return s.P }
func (s *IfStmt) Pos() token.Pos     { return s.P }
func (s *BlockStmt) Pos() token.Pos  { return s.P }
func (s *ExitStmt) Pos() token.Pos   { return s.P }
func (s *ReturnStmt) Pos() token.Pos { return s.P }
func (s *ExprStmt) Pos() token.Pos   { return s.P }
func (s *ApplyStmt) Pos() token.Pos  { return s.P }
func (s *DeclStmt) Pos() token.Pos   { return s.P }

// ---------------------------------------------------------------------------
// Declarations

// Decl is a declaration of Figure 1c.
type Decl interface {
	Node
	declNode()
	DeclName() string
}

// Direction is a parameter direction d ∈ {in, out, inout}; the paper's
// fragment uses in and inout (directionless defaults to in).
type Direction int

// Parameter directions.
const (
	DirNone Direction = iota // directionless: control-plane-supplied (acts as in)
	DirIn
	DirOut
	DirInOut
)

// String renders the direction keyword ("" for directionless).
func (d Direction) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	default:
		return ""
	}
}

// Param is a function, action, or control parameter.
type Param struct {
	P    token.Pos
	Dir  Direction
	Type *SecType
	Name string
}

// VarDecl is τ x or τ x = exp; Const marks const declarations; Register
// marks stateful register declarations (register τ x[n]), whose storage
// persists across packets — the paper's Section 7 extension.
type VarDecl struct {
	P        token.Pos
	Type     *SecType
	Name     string
	Init     Expr // may be nil
	Const    bool
	Register bool
}

// TypedefDecl is typedef τ X.
type TypedefDecl struct {
	P    token.Pos
	Type *SecType
	Name string
}

// MatchKindDecl is match_kind { f... }.
type MatchKindDecl struct {
	P       token.Pos
	Members []string
}

// FieldDecl is a single field of a header or struct.
type FieldDecl struct {
	P    token.Pos
	Type *SecType
	Name string
}

// HeaderDecl is header X { fields }.
type HeaderDecl struct {
	P      token.Pos
	Name   string
	Fields []FieldDecl
}

// StructDecl is struct X { fields }.
type StructDecl struct {
	P      token.Pos
	Name   string
	Fields []FieldDecl
}

// FuncDecl is function τ_ret x(d y: τ){stmt}; actions are FuncDecls with
// IsAction set and no return type.
type FuncDecl struct {
	P        token.Pos
	Name     string
	IsAction bool
	Ret      *SecType // nil for actions and void functions
	Params   []Param
	Body     *BlockStmt
}

// TableKey is one key entry exp : match_kind.
type TableKey struct {
	P         token.Pos
	Expr      Expr
	MatchKind string
}

// ActionRef names an action in a table's action list, with the
// compile-time-bound argument expressions (the paper's exp_a).
type ActionRef struct {
	P    token.Pos
	Name string
	Args []Expr
}

// TableDecl is table x { key = {...} actions = {...} }.
type TableDecl struct {
	P       token.Pos
	Name    string
	Keys    []TableKey
	Actions []ActionRef
	Default *ActionRef // optional default_action
}

// ControlDecl is a control block: parameters, local declarations, and the
// apply block.
type ControlDecl struct {
	P      token.Pos
	Name   string
	Params []Param
	Locals []Decl // VarDecl, FuncDecl, TableDecl
	Apply  *BlockStmt
	// PCLabel is an optional @pc("label") annotation giving the security
	// context the control must be checked under (Section 5.4 types Alice's
	// control at pc = A and Bob's at pc = B).
	PCLabel string
}

func (*VarDecl) declNode()       {}
func (*TypedefDecl) declNode()   {}
func (*MatchKindDecl) declNode() {}
func (*HeaderDecl) declNode()    {}
func (*StructDecl) declNode()    {}
func (*FuncDecl) declNode()      {}
func (*TableDecl) declNode()     {}
func (*ControlDecl) declNode()   {}

func (d *VarDecl) Pos() token.Pos       { return d.P }
func (d *TypedefDecl) Pos() token.Pos   { return d.P }
func (d *MatchKindDecl) Pos() token.Pos { return d.P }
func (d *HeaderDecl) Pos() token.Pos    { return d.P }
func (d *StructDecl) Pos() token.Pos    { return d.P }
func (d *FuncDecl) Pos() token.Pos      { return d.P }
func (d *TableDecl) Pos() token.Pos     { return d.P }
func (d *ControlDecl) Pos() token.Pos   { return d.P }

func (d *VarDecl) DeclName() string       { return d.Name }
func (d *TypedefDecl) DeclName() string   { return d.Name }
func (d *MatchKindDecl) DeclName() string { return "match_kind" }
func (d *HeaderDecl) DeclName() string    { return d.Name }
func (d *StructDecl) DeclName() string    { return d.Name }
func (d *FuncDecl) DeclName() string      { return d.Name }
func (d *TableDecl) DeclName() string     { return d.Name }
func (d *ControlDecl) DeclName() string   { return d.Name }

// Program is prg ::= typ_decl... ctrl_body. Decls holds the top-level type,
// constant, and object declarations; Controls the control blocks (most
// programs have exactly one, per Section 3.1).
type Program struct {
	File     string
	Decls    []Decl
	Controls []*ControlDecl
}

// Control returns the single control block, or the first one if several are
// declared. It returns nil for a program with no control block.
func (p *Program) Control() *ControlDecl {
	if len(p.Controls) == 0 {
		return nil
	}
	return p.Controls[0]
}

// ---------------------------------------------------------------------------
// L-values (Appendix F)

// IsLValue reports whether e has the syntactic shape of an l-value:
// x, lval.f, or lval[n]. The type checker additionally requires the
// expression to go inout.
func IsLValue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return true
	case *Member:
		return IsLValue(e.X)
	case *Index:
		return IsLValue(e.X)
	default:
		return false
	}
}

// LValueBase returns the base variable of an l-value (Appendix F's
// lval_base), or "" if e is not an l-value.
func LValueBase(e Expr) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *Member:
		return LValueBase(e.X)
	case *Index:
		return LValueBase(e.X)
	default:
		return ""
	}
}
