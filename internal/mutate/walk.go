// Site collection and AST deep copy for the mutation operators. The
// walker gathers mutable pointers (annotation sites, operators, literals,
// blocks) in syntactic order, so a site draw is uniform over the program;
// the copiers produce alias-free trees so a mutation attempt never
// changes its seed's base, and clone-and-perturb and splice never mutate
// their source, through sharing.
package mutate

import (
	"repro/internal/ast"
)

// sites indexes the mutable structure of one program (or one subtree).
type sites struct {
	secs   []*ast.SecType   // annotation sites (header/struct fields, params, vars, typedefs)
	bins   []*ast.Binary    // operator sites
	ints   []*ast.IntLit    // literal sites
	bools  []*ast.BoolLit   // literal sites
	blocks []*ast.BlockStmt // statement containers (apply, bodies, branches)
	ifs    []*ast.IfStmt    // guard sites
	conds  []ast.Expr       // existing guard expressions (wrap-if material)
	lvals  []ast.Expr       // existing assignment LHSes (wrap-if material)
}

func collect(p *ast.Program) *sites {
	s := &sites{}
	for _, d := range p.Decls {
		s.decl(d)
	}
	for _, c := range p.Controls {
		for i := range c.Params {
			s.sec(c.Params[i].Type)
		}
		for _, d := range c.Locals {
			s.decl(d)
		}
		s.block(c.Apply)
	}
	return s
}

func (s *sites) sec(t *ast.SecType) {
	if t != nil {
		s.secs = append(s.secs, t)
	}
}

func (s *sites) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.TypedefDecl:
		s.sec(d.Type)
	case *ast.HeaderDecl:
		for i := range d.Fields {
			s.sec(d.Fields[i].Type)
		}
	case *ast.StructDecl:
		for i := range d.Fields {
			s.sec(d.Fields[i].Type)
		}
	case *ast.VarDecl:
		s.sec(d.Type)
		s.expr(d.Init)
	case *ast.FuncDecl:
		for i := range d.Params {
			s.sec(d.Params[i].Type)
		}
		s.block(d.Body)
	case *ast.TableDecl:
		for i := range d.Keys {
			s.expr(d.Keys[i].Expr)
		}
	}
}

func (s *sites) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	s.blocks = append(s.blocks, b)
	for _, st := range b.Stmts {
		s.stmt(st)
	}
}

func (s *sites) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		s.lvals = append(s.lvals, st.LHS)
		s.expr(st.LHS)
		s.expr(st.RHS)
	case *ast.IfStmt:
		s.ifs = append(s.ifs, st)
		s.conds = append(s.conds, st.Cond)
		s.expr(st.Cond)
		s.block(st.Then)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.BlockStmt:
		s.block(st)
	case *ast.ReturnStmt:
		s.expr(st.X)
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.ApplyStmt:
		s.expr(st.Table)
	case *ast.DeclStmt:
		s.sec(st.Decl.Type)
		s.expr(st.Decl.Init)
	}
}

func (s *sites) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit:
		s.ints = append(s.ints, e)
	case *ast.BoolLit:
		s.bools = append(s.bools, e)
	case *ast.Unary:
		s.expr(e.X)
	case *ast.Binary:
		s.bins = append(s.bins, e)
		s.expr(e.X)
		s.expr(e.Y)
	case *ast.Index:
		s.expr(e.X)
		s.expr(e.I)
	case *ast.RecordLit:
		for i := range e.Fields {
			s.expr(e.Fields[i].Value)
		}
	case *ast.Member:
		s.expr(e.X)
	case *ast.Call:
		s.expr(e.Fun)
		for _, a := range e.Args {
			s.expr(a)
		}
	}
}

// ---------------------------------------------------------------------------
// Deep copy

// copyProgram returns a copy of p that shares no node with it, so each
// mutation attempt can edit its copy of a seed's base in place. Positions
// are copied too: the copy is the tree a reparse of the base's source
// would build.
func copyProgram(p *ast.Program) *ast.Program {
	out := &ast.Program{File: p.File, Decls: make([]ast.Decl, len(p.Decls)), Controls: make([]*ast.ControlDecl, len(p.Controls))}
	for i, d := range p.Decls {
		out.Decls[i] = copyDecl(d)
	}
	for i, c := range p.Controls {
		out.Controls[i] = copyControl(c)
	}
	return out
}

func copyDecl(d ast.Decl) ast.Decl {
	switch d := d.(type) {
	case *ast.TypedefDecl:
		return &ast.TypedefDecl{P: d.P, Type: copySec(d.Type), Name: d.Name}
	case *ast.MatchKindDecl:
		return &ast.MatchKindDecl{P: d.P, Members: append([]string(nil), d.Members...)}
	case *ast.HeaderDecl:
		return &ast.HeaderDecl{P: d.P, Name: d.Name, Fields: copyFields(d.Fields)}
	case *ast.StructDecl:
		return &ast.StructDecl{P: d.P, Name: d.Name, Fields: copyFields(d.Fields)}
	case *ast.VarDecl:
		return copyVarDecl(d)
	case *ast.FuncDecl:
		return &ast.FuncDecl{P: d.P, Name: d.Name, IsAction: d.IsAction, Ret: copySec(d.Ret),
			Params: copyParams(d.Params), Body: copyBlock(d.Body)}
	case *ast.TableDecl:
		t := &ast.TableDecl{P: d.P, Name: d.Name, Keys: make([]ast.TableKey, len(d.Keys)), Actions: make([]ast.ActionRef, len(d.Actions))}
		for i, k := range d.Keys {
			t.Keys[i] = ast.TableKey{P: k.P, Expr: copyExpr(k.Expr), MatchKind: k.MatchKind}
		}
		for i, a := range d.Actions {
			t.Actions[i] = copyActionRef(a)
		}
		if d.Default != nil {
			a := copyActionRef(*d.Default)
			t.Default = &a
		}
		return t
	case *ast.ControlDecl:
		return copyControl(d)
	default:
		return d // unreachable for the closed Decl set
	}
}

func copyControl(c *ast.ControlDecl) *ast.ControlDecl {
	out := &ast.ControlDecl{P: c.P, Name: c.Name, Params: copyParams(c.Params),
		Locals: make([]ast.Decl, len(c.Locals)), Apply: copyBlock(c.Apply), PCLabel: c.PCLabel}
	for i, d := range c.Locals {
		out.Locals[i] = copyDecl(d)
	}
	return out
}

func copyFields(fs []ast.FieldDecl) []ast.FieldDecl {
	out := make([]ast.FieldDecl, len(fs))
	for i, f := range fs {
		out[i] = ast.FieldDecl{P: f.P, Type: copySec(f.Type), Name: f.Name}
	}
	return out
}

func copyParams(ps []ast.Param) []ast.Param {
	out := make([]ast.Param, len(ps))
	for i, p := range ps {
		out[i] = ast.Param{P: p.P, Dir: p.Dir, Type: copySec(p.Type), Name: p.Name}
	}
	return out
}

func copyActionRef(a ast.ActionRef) ast.ActionRef {
	out := ast.ActionRef{P: a.P, Name: a.Name}
	if a.Args != nil {
		out.Args = make([]ast.Expr, len(a.Args))
		for i, e := range a.Args {
			out.Args[i] = copyExpr(e)
		}
	}
	return out
}

func copyVarDecl(d *ast.VarDecl) *ast.VarDecl {
	c := *d
	c.Type = copySec(d.Type)
	c.Init = copyExpr(d.Init)
	return &c
}

func copySec(t *ast.SecType) *ast.SecType {
	if t == nil {
		return nil
	}
	return &ast.SecType{P: t.P, Base: copyType(t.Base), Label: t.Label}
}

func copyType(t ast.Type) ast.Type {
	switch t := t.(type) {
	case *ast.BoolType:
		c := *t
		return &c
	case *ast.IntType:
		c := *t
		return &c
	case *ast.BitType:
		c := *t
		return &c
	case *ast.VoidType:
		c := *t
		return &c
	case *ast.NamedType:
		c := *t
		return &c
	case *ast.StackType:
		return &ast.StackType{P: t.P, Elem: copySec(t.Elem), Size: t.Size}
	default:
		return t // nil, or unreachable for the closed Type set
	}
}

func copyExpr(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.BoolLit:
		c := *e
		return &c
	case *ast.IntLit:
		c := *e
		return &c
	case *ast.Ident:
		c := *e
		return &c
	case *ast.Unary:
		return &ast.Unary{P: e.P, Op: e.Op, X: copyExpr(e.X)}
	case *ast.Binary:
		return &ast.Binary{P: e.P, Op: e.Op, X: copyExpr(e.X), Y: copyExpr(e.Y)}
	case *ast.Index:
		return &ast.Index{P: e.P, X: copyExpr(e.X), I: copyExpr(e.I)}
	case *ast.RecordLit:
		fs := make([]ast.FieldInit, len(e.Fields))
		for i, f := range e.Fields {
			fs[i] = ast.FieldInit{P: f.P, Name: f.Name, Value: copyExpr(f.Value)}
		}
		return &ast.RecordLit{P: e.P, Fields: fs}
	case *ast.Member:
		return &ast.Member{P: e.P, X: copyExpr(e.X), Field: e.Field}
	case *ast.Call:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = copyExpr(a)
		}
		return &ast.Call{P: e.P, Fun: copyExpr(e.Fun), Args: args}
	default:
		return e // unreachable for the closed Expr set
	}
}

func copyBlock(b *ast.BlockStmt) *ast.BlockStmt {
	if b == nil {
		return nil
	}
	out := &ast.BlockStmt{P: b.P, Stmts: make([]ast.Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		out.Stmts[i] = copyStmt(s)
	}
	return out
}

func copyStmt(s ast.Stmt) ast.Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.AssignStmt:
		return &ast.AssignStmt{P: s.P, LHS: copyExpr(s.LHS), RHS: copyExpr(s.RHS)}
	case *ast.IfStmt:
		return &ast.IfStmt{P: s.P, Cond: copyExpr(s.Cond), Then: copyBlock(s.Then), Else: copyStmt(s.Else)}
	case *ast.BlockStmt:
		return copyBlock(s)
	case *ast.ExitStmt:
		c := *s
		return &c
	case *ast.ReturnStmt:
		return &ast.ReturnStmt{P: s.P, X: copyExpr(s.X)}
	case *ast.ExprStmt:
		return &ast.ExprStmt{P: s.P, X: copyExpr(s.X)}
	case *ast.ApplyStmt:
		return &ast.ApplyStmt{P: s.P, Table: copyExpr(s.Table)}
	case *ast.DeclStmt:
		return &ast.DeclStmt{P: s.P, Decl: copyVarDecl(s.Decl)}
	default:
		return s // unreachable for the closed Stmt set
	}
}
