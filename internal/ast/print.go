// AST-to-source printing. Print renders a Program back into the surface
// syntax accepted by internal/parser, so that print ∘ parse is the identity
// on the printed form: parsing Print's output and printing again yields the
// same text. The parser fuzz targets use this for the parse→print→reparse
// roundtrip property, and the pipeline uses it to persist generated
// counterexamples.
//
// Everything is appended straight into one strings.Builder: writeExpr,
// writeType and writeSec are the only renderings of expressions and types,
// shared by Print and every String method.
package ast

import (
	"strconv"
	"strings"
)

// Print renders prog as parseable source text. Top-level type and constant
// declarations come first (in declaration order), then the control blocks;
// the parser's Program split loses the original interleaving, so printing is
// canonical rather than position-faithful.
func Print(prog *Program) string {
	p := &printer{}
	for _, d := range prog.Decls {
		p.decl(d)
	}
	for _, c := range prog.Controls {
		p.control(c)
	}
	return p.b.String()
}

// printer writes one line as start (the indentation), the line's pieces,
// then end (its closing text and the newline).
type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) start() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) end(s string) {
	p.b.WriteString(s)
	p.b.WriteByte('\n')
}

// line writes one whole line of fixed text.
func (p *printer) line(s string) {
	p.start()
	p.end(s)
}

func (p *printer) str(s string) { p.b.WriteString(s) }

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *TypedefDecl:
		p.start()
		p.str("typedef ")
		writeSec(&p.b, d.Type)
		p.str(" ")
		p.str(d.Name)
		p.end(";")
	case *MatchKindDecl:
		p.start()
		p.str("match_kind { ")
		for i, m := range d.Members {
			if i > 0 {
				p.str(", ")
			}
			p.str(m)
		}
		p.end(" }")
	case *HeaderDecl:
		p.fields("header ", d.Name, d.Fields)
	case *StructDecl:
		p.fields("struct ", d.Name, d.Fields)
	case *VarDecl:
		p.varDecl(d)
	case *FuncDecl:
		p.funcDecl(d)
	case *TableDecl:
		p.table(d)
	case *ControlDecl:
		p.control(d)
	}
}

func (p *printer) fields(kw, name string, fs []FieldDecl) {
	p.start()
	p.str(kw)
	p.str(name)
	p.end(" {")
	p.indent++
	for _, f := range fs {
		p.start()
		writeSec(&p.b, f.Type)
		p.str(" ")
		p.str(f.Name)
		p.end(";")
	}
	p.indent--
	p.line("}")
}

func (p *printer) varDecl(d *VarDecl) {
	p.start()
	switch {
	case d.Register:
		p.str("register ")
	case d.Const:
		p.str("const ")
	}
	writeSec(&p.b, d.Type)
	p.str(" ")
	p.str(d.Name)
	if !d.Register && (d.Const || d.Init != nil) {
		p.str(" = ")
		writeExpr(&p.b, d.Init)
	}
	p.end(";")
}

func (p *printer) params(ps []Param) {
	for i, pr := range ps {
		if i > 0 {
			p.str(", ")
		}
		if dir := pr.Dir.String(); dir != "" {
			p.str(dir)
			p.str(" ")
		}
		writeSec(&p.b, pr.Type)
		p.str(" ")
		p.str(pr.Name)
	}
}

func (p *printer) funcDecl(d *FuncDecl) {
	p.start()
	if d.IsAction {
		p.str("action ")
	} else {
		p.str("function ")
		if d.Ret != nil {
			writeSec(&p.b, d.Ret)
		} else {
			p.str("void")
		}
		p.str(" ")
	}
	p.str(d.Name)
	p.str("(")
	p.params(d.Params)
	p.end(") {")
	p.indent++
	p.stmts(d.Body)
	p.indent--
	p.line("}")
}

func (p *printer) actionRef(r ActionRef) {
	p.str(r.Name)
	if len(r.Args) == 0 {
		return
	}
	p.str("(")
	for i, a := range r.Args {
		if i > 0 {
			p.str(", ")
		}
		writeExpr(&p.b, a)
	}
	p.str(")")
}

func (p *printer) table(d *TableDecl) {
	p.start()
	p.str("table ")
	p.str(d.Name)
	p.end(" {")
	p.indent++
	if len(d.Keys) > 0 {
		p.line("key = {")
		p.indent++
		for _, k := range d.Keys {
			p.start()
			writeExpr(&p.b, k.Expr)
			p.str(" : ")
			p.str(k.MatchKind)
			p.end(";")
		}
		p.indent--
		p.line("}")
	}
	p.line("actions = {")
	p.indent++
	for _, a := range d.Actions {
		p.start()
		p.actionRef(a)
		p.end(";")
	}
	p.indent--
	p.line("}")
	if d.Default != nil {
		p.start()
		p.str("default_action = ")
		p.actionRef(*d.Default)
		p.end(";")
	}
	p.indent--
	p.line("}")
}

func (p *printer) control(c *ControlDecl) {
	if c.PCLabel != "" {
		p.start()
		p.str("@pc(")
		p.str(c.PCLabel)
		p.end(")")
	}
	p.start()
	p.str("control ")
	p.str(c.Name)
	p.str("(")
	p.params(c.Params)
	p.end(") {")
	p.indent++
	for _, d := range c.Locals {
		p.decl(d)
	}
	p.line("apply {")
	p.indent++
	p.stmts(c.Apply)
	p.indent--
	p.line("}")
	p.indent--
	p.line("}")
}

func (p *printer) stmts(b *BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		p.stmt(s)
	}
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		p.start()
		writeExpr(&p.b, s.LHS)
		p.str(" = ")
		writeExpr(&p.b, s.RHS)
		p.end(";")
	case *IfStmt:
		p.ifStmt(s)
	case *BlockStmt:
		p.line("{")
		p.indent++
		p.stmts(s)
		p.indent--
		p.line("}")
	case *ExitStmt:
		p.line("exit;")
	case *ReturnStmt:
		if s.X == nil {
			p.line("return;")
			return
		}
		p.start()
		p.str("return ")
		writeExpr(&p.b, s.X)
		p.end(";")
	case *ExprStmt:
		p.start()
		writeExpr(&p.b, s.X)
		p.end(";")
	case *ApplyStmt:
		p.start()
		writeExpr(&p.b, s.Table)
		p.end(".apply();")
	case *DeclStmt:
		p.varDecl(s.Decl)
	}
}

// ifStmt prints an if with its else-if chain flattened onto the closing
// braces (`} else if (...) {`), so nesting does not indent; the parser
// rebuilds the identical IfStmt spine.
func (p *printer) ifStmt(s *IfStmt) {
	p.start()
	p.str("if (")
	writeExpr(&p.b, s.Cond)
	p.end(") {")
	for {
		p.indent++
		p.stmts(s.Then)
		p.indent--
		switch e := s.Else.(type) {
		case nil:
			p.line("}")
			return
		case *IfStmt:
			p.start()
			p.str("} else if (")
			writeExpr(&p.b, e.Cond)
			p.end(") {")
			s = e
		case *BlockStmt:
			p.line("} else {")
			p.indent++
			p.stmts(e)
			p.indent--
			p.line("}")
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions and types

func writeInt(b *strings.Builder, n int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], n, 10))
}

// writeExpr appends e's source form. Binary operations are always
// parenthesized, so the printed text reparses to the same tree whatever
// the operator precedences.
func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *BoolLit:
		if e.Val {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case *IntLit:
		if e.HasWidth {
			writeInt(b, int64(e.Width))
			b.WriteByte('w')
		}
		var buf [20]byte
		b.Write(strconv.AppendUint(buf[:0], e.Val, 10))
	case *Ident:
		b.WriteString(e.Name)
	case *Unary:
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
	case *Binary:
		b.WriteByte('(')
		writeExpr(b, e.X)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		writeExpr(b, e.Y)
		b.WriteByte(')')
	case *Index:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.I)
		b.WriteByte(']')
	case *RecordLit:
		b.WriteByte('{')
		for i, f := range e.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString(" = ")
			writeExpr(b, f.Value)
		}
		b.WriteByte('}')
	case *Member:
		writeExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Field)
	case *Call:
		writeExpr(b, e.Fun)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	}
}

// writeType appends t's source form.
func writeType(b *strings.Builder, t Type) {
	switch t := t.(type) {
	case *BoolType:
		b.WriteString("bool")
	case *IntType:
		b.WriteString("int")
	case *BitType:
		b.WriteString("bit<")
		writeInt(b, int64(t.Width))
		b.WriteByte('>')
	case *VoidType:
		b.WriteString("void")
	case *NamedType:
		b.WriteString(t.Name)
	case *StackType:
		writeSec(b, t.Elem)
		b.WriteByte('[')
		writeInt(b, int64(t.Size))
		b.WriteByte(']')
	}
}

// writeSec appends a security-annotated type; an unannotated type renders
// as its base.
func writeSec(b *strings.Builder, t *SecType) {
	if t.Label == "" {
		writeType(b, t.Base)
		return
	}
	b.WriteByte('<')
	writeType(b, t.Base)
	b.WriteString(", ")
	b.WriteString(t.Label)
	b.WriteByte('>')
}

func exprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func typeString(t Type) string {
	var b strings.Builder
	writeType(&b, t)
	return b.String()
}
