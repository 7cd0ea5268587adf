package ast_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/parser"
	"repro/internal/progs"
)

// refPrint is the fmt-based printer Print replaced, kept verbatim in
// behaviour as the byte-for-byte reference: one linef per line, with
// expressions and types rendered by refExpr/refSec (the String methods
// the printer used to call through %s).
func refPrint(prog *ast.Program) string {
	p := &refPrinter{}
	for _, d := range prog.Decls {
		p.decl(d)
	}
	for _, c := range prog.Controls {
		p.control(c)
	}
	return p.b.String()
}

type refPrinter struct {
	b      strings.Builder
	indent int
}

func (p *refPrinter) linef(format string, args ...any) {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *refPrinter) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.TypedefDecl:
		p.linef("typedef %s %s;", refSec(d.Type), d.Name)
	case *ast.MatchKindDecl:
		p.linef("match_kind { %s }", strings.Join(d.Members, ", "))
	case *ast.HeaderDecl:
		p.fields("header", d.Name, d.Fields)
	case *ast.StructDecl:
		p.fields("struct", d.Name, d.Fields)
	case *ast.VarDecl:
		p.varDecl(d)
	case *ast.FuncDecl:
		p.funcDecl(d)
	case *ast.TableDecl:
		p.table(d)
	case *ast.ControlDecl:
		p.control(d)
	}
}

func (p *refPrinter) fields(kw, name string, fs []ast.FieldDecl) {
	p.linef("%s %s {", kw, name)
	p.indent++
	for _, f := range fs {
		p.linef("%s %s;", refSec(f.Type), f.Name)
	}
	p.indent--
	p.linef("}")
}

func (p *refPrinter) varDecl(d *ast.VarDecl) {
	switch {
	case d.Register:
		p.linef("register %s %s;", refSec(d.Type), d.Name)
	case d.Const:
		p.linef("const %s %s = %s;", refSec(d.Type), d.Name, refExpr(d.Init))
	case d.Init != nil:
		p.linef("%s %s = %s;", refSec(d.Type), d.Name, refExpr(d.Init))
	default:
		p.linef("%s %s;", refSec(d.Type), d.Name)
	}
}

func (p *refPrinter) params(ps []ast.Param) string {
	parts := make([]string, len(ps))
	for i, pr := range ps {
		if dir := pr.Dir.String(); dir != "" {
			parts[i] = dir + " " + refSec(pr.Type) + " " + pr.Name
		} else {
			parts[i] = refSec(pr.Type) + " " + pr.Name
		}
	}
	return strings.Join(parts, ", ")
}

func (p *refPrinter) funcDecl(d *ast.FuncDecl) {
	if d.IsAction {
		p.linef("action %s(%s) {", d.Name, p.params(d.Params))
	} else {
		ret := "void"
		if d.Ret != nil {
			ret = refSec(d.Ret)
		}
		p.linef("function %s %s(%s) {", ret, d.Name, p.params(d.Params))
	}
	p.indent++
	p.stmts(d.Body)
	p.indent--
	p.linef("}")
}

func refActionRef(r ast.ActionRef) string {
	if len(r.Args) == 0 {
		return r.Name
	}
	args := make([]string, len(r.Args))
	for i, a := range r.Args {
		args[i] = refExpr(a)
	}
	return r.Name + "(" + strings.Join(args, ", ") + ")"
}

func (p *refPrinter) table(d *ast.TableDecl) {
	p.linef("table %s {", d.Name)
	p.indent++
	if len(d.Keys) > 0 {
		p.linef("key = {")
		p.indent++
		for _, k := range d.Keys {
			p.linef("%s : %s;", refExpr(k.Expr), k.MatchKind)
		}
		p.indent--
		p.linef("}")
	}
	p.linef("actions = {")
	p.indent++
	for _, a := range d.Actions {
		p.linef("%s;", refActionRef(a))
	}
	p.indent--
	p.linef("}")
	if d.Default != nil {
		p.linef("default_action = %s;", refActionRef(*d.Default))
	}
	p.indent--
	p.linef("}")
}

func (p *refPrinter) control(c *ast.ControlDecl) {
	if c.PCLabel != "" {
		p.linef("@pc(%s)", c.PCLabel)
	}
	p.linef("control %s(%s) {", c.Name, p.params(c.Params))
	p.indent++
	for _, d := range c.Locals {
		p.decl(d)
	}
	p.linef("apply {")
	p.indent++
	p.stmts(c.Apply)
	p.indent--
	p.linef("}")
	p.indent--
	p.linef("}")
}

func (p *refPrinter) stmts(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		p.stmt(s)
	}
}

func (p *refPrinter) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		p.linef("%s = %s;", refExpr(s.LHS), refExpr(s.RHS))
	case *ast.IfStmt:
		p.ifStmt(s)
	case *ast.BlockStmt:
		p.linef("{")
		p.indent++
		p.stmts(s)
		p.indent--
		p.linef("}")
	case *ast.ExitStmt:
		p.linef("exit;")
	case *ast.ReturnStmt:
		if s.X != nil {
			p.linef("return %s;", refExpr(s.X))
		} else {
			p.linef("return;")
		}
	case *ast.ExprStmt:
		p.linef("%s;", refExpr(s.X))
	case *ast.ApplyStmt:
		p.linef("%s.apply();", refExpr(s.Table))
	case *ast.DeclStmt:
		p.varDecl(s.Decl)
	}
}

func (p *refPrinter) ifStmt(s *ast.IfStmt) {
	p.linef("if (%s) {", refExpr(s.Cond))
	for {
		p.indent++
		p.stmts(s.Then)
		p.indent--
		switch e := s.Else.(type) {
		case nil:
			p.linef("}")
			return
		case *ast.IfStmt:
			p.linef("} else if (%s) {", refExpr(e.Cond))
			s = e
		case *ast.BlockStmt:
			p.linef("} else {")
			p.indent++
			p.stmts(e)
			p.indent--
			p.linef("}")
			return
		}
	}
}

// refType, refSec and refExpr are the String methods as they were before
// they moved onto the shared writer.
func refType(t ast.Type) string {
	switch t := t.(type) {
	case *ast.BoolType:
		return "bool"
	case *ast.IntType:
		return "int"
	case *ast.BitType:
		return "bit<" + strconv.Itoa(t.Width) + ">"
	case *ast.VoidType:
		return "void"
	case *ast.NamedType:
		return t.Name
	case *ast.StackType:
		return refSec(t.Elem) + "[" + strconv.Itoa(t.Size) + "]"
	}
	panic(fmt.Sprintf("refType: %T", t))
}

func refSec(t *ast.SecType) string {
	if t.Label == "" {
		return refType(t.Base)
	}
	return "<" + refType(t.Base) + ", " + t.Label + ">"
}

func refExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *ast.IntLit:
		if e.HasWidth {
			return strconv.Itoa(e.Width) + "w" + strconv.FormatUint(e.Val, 10)
		}
		return strconv.FormatUint(e.Val, 10)
	case *ast.Ident:
		return e.Name
	case *ast.Unary:
		return e.Op.String() + refExpr(e.X)
	case *ast.Binary:
		return "(" + refExpr(e.X) + " " + e.Op.String() + " " + refExpr(e.Y) + ")"
	case *ast.Index:
		return refExpr(e.X) + "[" + refExpr(e.I) + "]"
	case *ast.RecordLit:
		parts := make([]string, len(e.Fields))
		for i, f := range e.Fields {
			parts[i] = f.Name + " = " + refExpr(f.Value)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *ast.Member:
		return refExpr(e.X) + "." + e.Field
	case *ast.Call:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = refExpr(a)
		}
		return refExpr(e.Fun) + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("refExpr: %T", e))
}

// printMatchesRef requires Print and the reference printer to agree byte
// for byte on src's parse, and every expression and type String method to
// agree with the reference rendering.
func printMatchesRef(t *testing.T, name, src string) {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s does not parse: %v", name, err)
	}
	if got, want := ast.Print(prog), refPrint(prog); got != want {
		t.Fatalf("%s: Print differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	for _, d := range prog.Decls {
		if td, ok := d.(*ast.TypedefDecl); ok {
			if got, want := td.Type.String(), refSec(td.Type); got != want {
				t.Fatalf("%s: SecType.String %q, reference %q", name, got, want)
			}
			if got, want := td.Type.Base.String(), refType(td.Type.Base); got != want {
				t.Fatalf("%s: Type.String %q, reference %q", name, got, want)
			}
		}
	}
	for _, c := range prog.Controls {
		for _, s := range c.Apply.Stmts {
			if a, ok := s.(*ast.AssignStmt); ok {
				for _, e := range []ast.Expr{a.LHS, a.RHS} {
					if got, want := e.String(), refExpr(e); got != want {
						t.Fatalf("%s: Expr.String %q, reference %q", name, got, want)
					}
				}
			}
		}
	}
}

// TestPrintMatchesReference compares Print with the fmt-based reference
// over every case study variant, the regression corpus, at least 1,000
// generated programs under each of four lattices, and one mutant of every
// generated program.
func TestPrintMatchesReference(t *testing.T) {
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed, progs.Unannotated} {
			printMatchesRef(t, p.FileName(v), p.Source(v))
		}
	}
	printMatchesRef(t, "details.p4", syntaxDetails)

	corpusFiles := 0
	err := filepath.WalkDir("../../testdata/regression-corpus", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".p4" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := parser.Parse(path, string(src)); err != nil {
			return nil // an unparseable finding has nothing to print
		}
		printMatchesRef(t, path, string(src))
		corpusFiles++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if corpusFiles == 0 {
		t.Fatal("no regression-corpus programs found")
	}

	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	for _, spec := range []string{"", "chain:4", "diamond", "powerset:2"} {
		cfg := gen.DefaultConfig()
		cfg.Lattice = spec
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			src := gen.Random(rng, cfg)
			name := fmt.Sprintf("%s-%d.p4", spec, seed)
			printMatchesRef(t, name, src)
			if res, err := mutate.Mutate(rng, name, src, mutate.Config{Lattice: spec}); err == nil {
				printMatchesRef(t, "mut-"+name, res.Source)
			}
		}
	}
}

// TestPrintAllocs bounds the allocations of one Print call: the builder's
// growth and nothing per line or per expression.
func TestPrintAllocs(t *testing.T) {
	prog := parser.MustParse("alloc.p4", gen.Random(rand.New(rand.NewSource(3)), gen.DefaultConfig()))
	out := ast.Print(prog)
	allocs := testing.AllocsPerRun(100, func() { ast.Print(prog) })
	// A doubling builder reaches len(out) bytes in about log2(len(out))
	// growths, plus the printer itself.
	t.Logf("%d-byte program: %.0f allocs per Print", len(out), allocs)
	if max := 16.0; allocs > max {
		t.Fatalf("Print of a %d-byte program allocates %.0f times, want at most %.0f", len(out), allocs, max)
	}
}
