package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/token"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse("test.p4", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func mustFail(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse("test.p4", src)
	if err == nil {
		t.Fatalf("parse succeeded, want error containing %q", wantSub)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestParseMinimalControl(t *testing.T) {
	prog := mustParse(t, `
control C(inout standard_metadata_t m) {
    apply { }
}
`)
	if len(prog.Controls) != 1 {
		t.Fatalf("controls = %d", len(prog.Controls))
	}
	c := prog.Control()
	if c.Name != "C" || len(c.Params) != 1 || c.Params[0].Dir != ast.DirInOut {
		t.Errorf("control parsed wrong: %+v", c)
	}
}

func TestParseHeaderStructTypedefMatchKind(t *testing.T) {
	prog := mustParse(t, `
typedef bit<32> ip4_t;
match_kind { range, optional }
header h_t {
    <bit<8>, high> secret;
    bit<8> open;
    ip4_t addr;
}
struct headers { h_t h; }
control C(inout headers hdr) { apply { } }
`)
	if len(prog.Decls) != 4 {
		t.Fatalf("decls = %d", len(prog.Decls))
	}
	hdr, ok := prog.Decls[2].(*ast.HeaderDecl)
	if !ok {
		t.Fatalf("decl 2 is %T", prog.Decls[2])
	}
	if len(hdr.Fields) != 3 {
		t.Fatalf("fields = %d", len(hdr.Fields))
	}
	if hdr.Fields[0].Type.Label != "high" {
		t.Errorf("field 0 label = %q", hdr.Fields[0].Type.Label)
	}
	if hdr.Fields[1].Type.Label != "" {
		t.Errorf("field 1 label = %q, want unannotated", hdr.Fields[1].Type.Label)
	}
	mk, ok := prog.Decls[1].(*ast.MatchKindDecl)
	if !ok || len(mk.Members) != 2 || mk.Members[0] != "range" {
		t.Errorf("match_kind parsed wrong: %+v", prog.Decls[1])
	}
}

func TestParseNestedAngles(t *testing.T) {
	// <bit<8>, high> requires splitting no tokens; stacks of annotated
	// types exercise the >>-split path.
	prog := mustParse(t, `
header h_t {
    <bit<8>, high> arr[4];
}
struct headers { h_t h; }
control C(inout headers hdr) { apply { hdr.h.arr[0] = 1; } }
`)
	hd := prog.Decls[0].(*ast.HeaderDecl)
	st, ok := hd.Fields[0].Type.Base.(*ast.StackType)
	if !ok {
		t.Fatalf("field type = %T, want stack", hd.Fields[0].Type.Base)
	}
	if st.Size != 4 || st.Elem.Label != "high" {
		t.Errorf("stack = %+v", st)
	}
}

func TestShrSplitInTypePosition(t *testing.T) {
	// bit<bit<8>> style nesting does not occur, but a SecType whose close
	// angle immediately follows a bit width produces >> in e.g.
	// <bit<8>> is invalid (missing label); use a table-less check of
	// x >> y parsing instead plus generic close.
	e, err := ParseExpr("a >> 2")
	if err != nil {
		t.Fatal(err)
	}
	bin, ok := e.(*ast.Binary)
	if !ok || bin.Op != token.SHR {
		t.Fatalf("expr = %v", e)
	}
}

func TestExprPrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":        "(1 + (2 * 3))",
		"1 * 2 + 3":        "((1 * 2) + 3)",
		"a || b && c":      "(a || (b && c))",
		"a == b + 1":       "(a == (b + 1))",
		"a & b == c":       "((a & b) == c)", // cmp binds looser than &
		"a | b ^ c & d":    "(a | (b ^ (c & d)))",
		"- a + b":          "(-a + b)",
		"!a && b":          "(!a && b)",
		"a << 1 + 1":       "(a << (1 + 1))", // shift binds looser than +, as in P4/C
		"(1 + 2) * 3":      "((1 + 2) * 3)",
		"a.b.c + x[1].f":   "(a.b.c + x[1].f)",
		"f(x, y + 1).g":    "f(x, (y + 1)).g",
		"~a ^ b":           "(~a ^ b)",
		"a < b == (c > d)": "((a < b) == (c > d))",
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got := e.String(); got != want {
			t.Errorf("%q parsed as %s, want %s", src, got, want)
		}
	}
}

func TestRecordLiteral(t *testing.T) {
	e, err := ParseExpr("{a = 1, b = x + 1}")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := e.(*ast.RecordLit)
	if !ok || len(rec.Fields) != 2 {
		t.Fatalf("expr = %v", e)
	}
	if rec.Fields[0].Name != "a" || rec.Fields[1].Name != "b" {
		t.Errorf("fields = %v", rec)
	}
}

func TestParseTable(t *testing.T) {
	prog := mustParse(t, `
header h_t { bit<8> f; bit<8> g; }
struct headers { h_t h; }
control C(inout headers hdr) {
    action a1(bit<8> x) { hdr.h.f = x; }
    action a2() { }
    table t {
        key = { hdr.h.f: exact; hdr.h.g: lpm; }
        actions = { a1(hdr.h.g); a2; NoAction; }
        default_action = a2;
    }
    apply { t.apply(); }
}
`)
	var tbl *ast.TableDecl
	for _, d := range prog.Control().Locals {
		if td, ok := d.(*ast.TableDecl); ok {
			tbl = td
		}
	}
	if tbl == nil {
		t.Fatal("no table parsed")
	}
	if len(tbl.Keys) != 2 || tbl.Keys[0].MatchKind != "exact" || tbl.Keys[1].MatchKind != "lpm" {
		t.Errorf("keys = %+v", tbl.Keys)
	}
	if len(tbl.Actions) != 3 || len(tbl.Actions[0].Args) != 1 || tbl.Actions[1].Args != nil {
		t.Errorf("actions = %+v", tbl.Actions)
	}
	if tbl.Default == nil || tbl.Default.Name != "a2" {
		t.Errorf("default = %+v", tbl.Default)
	}
	// Apply statement recognized.
	ap, ok := prog.Control().Apply.Stmts[0].(*ast.ApplyStmt)
	if !ok {
		t.Fatalf("apply stmt = %T", prog.Control().Apply.Stmts[0])
	}
	if id, ok := ap.Table.(*ast.Ident); !ok || id.Name != "t" {
		t.Errorf("apply target = %v", ap.Table)
	}
}

func TestParseStatements(t *testing.T) {
	prog := mustParse(t, `
header h_t { bit<8> f; bool b; }
struct headers { h_t h; }
control C(inout headers hdr) {
    function bit<8> f(in bit<8> x) {
        bit<8> y = x;
        if (y > 1) { return y; } else if (y == 0) { exit; }
        return 0;
    }
    apply {
        hdr.h.f = f(3);
        { hdr.h.b = true; }
    }
}
`)
	fn := prog.Control().Locals[0].(*ast.FuncDecl)
	if fn.IsAction || fn.Ret == nil {
		t.Fatalf("function parsed wrong: %+v", fn)
	}
	stmts := fn.Body.Stmts
	if _, ok := stmts[0].(*ast.DeclStmt); !ok {
		t.Errorf("stmt 0 = %T, want DeclStmt", stmts[0])
	}
	ifs, ok := stmts[1].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", stmts[1])
	}
	if _, ok := ifs.Else.(*ast.IfStmt); !ok {
		t.Errorf("else-if not chained: %T", ifs.Else)
	}
	if _, ok := stmts[2].(*ast.ReturnStmt); !ok {
		t.Errorf("stmt 2 = %T", stmts[2])
	}
}

func TestPCAnnotation(t *testing.T) {
	prog := mustParse(t, `
@pc(A)
control Alice(inout standard_metadata_t m) { apply { } }
`)
	if prog.Control().PCLabel != "A" {
		t.Errorf("PCLabel = %q", prog.Control().PCLabel)
	}
}

func TestConstDecl(t *testing.T) {
	prog := mustParse(t, `
const <bit<8>, low> LIMIT = 16;
control C(inout standard_metadata_t m) {
    const bit<8> LOCAL = 2;
    apply { }
}
`)
	vd, ok := prog.Decls[0].(*ast.VarDecl)
	if !ok || !vd.Const || vd.Name != "LIMIT" {
		t.Fatalf("const parsed wrong: %+v", prog.Decls[0])
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`control C() { }`, "no apply block"},
		{`control C() { apply { } apply { } }`, "multiple apply"},
		{`header h_t { bit<8> }`, "expected identifier"},
		{`control C() { apply { x = ; } }`, "expected an expression"},
		{`control C() { apply { 1 + 2; } }`, "must be a call"},
		{`control C() { table t { actions = { } } apply { } }`, "no actions"},
		{`@wrong(A) control C() { apply { } }`, "unknown annotation"},
		{`typedef bit<0> z;`, "out of range"},
		{`control C() { apply { if x { } } }`, "expected ("},
		{`struct s { bit<8> f; bit<8> f; }`, ""}, // dup field caught later by resolve
	}
	for _, c := range cases {
		if c.want == "" {
			continue
		}
		mustFail(t, c.src, c.want)
	}
}

// TestNULBytes: a NUL byte is not the end of the input. Outside a comment
// it is an illegal character, wherever it falls, so text after it is never
// silently dropped; inside a comment of either kind it is comment text and
// ends nothing.
func TestNULBytes(t *testing.T) {
	const prog = "control C(inout bit<8> x) { apply { x = x + 1; } }"
	cases := []struct{ name, src, want string }{
		{"after a program", prog + "\x00 this is not P4 {{{", "test.p4:1:51: unexpected character '\\x00'"},
		{"mid-program", "control C(inout bit<8> x) { apply { x = \x00x + 1; } }", "test.p4:1:41: unexpected character '\\x00'"},
		{"at the start", "\x00" + prog, "test.p4:1:1: unexpected character '\\x00'"},
		{"in a line comment", prog + " // a \x00 b\ncontrol D() { apply { } }", ""},
		{"in a block comment", "control C(inout bit<8> x) { apply { /* a \x00 b */ x = x + 1; } }", ""},
		{"in an unterminated block comment", prog + " /* a \x00 b", "test.p4:1:52: unterminated block comment"},
	}
	for _, c := range cases {
		prog, err := Parse("test.p4", c.src)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && len(prog.Controls) == 0:
			t.Errorf("%s: no control parsed", c.name)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
	}
	// The line comment ends at its newline, not at the NUL: the control
	// after it is parsed too.
	if prog := mustParse(t, cases[3].src); len(prog.Controls) != 2 {
		t.Errorf("line comment with a NUL: %d controls, want 2", len(prog.Controls))
	}
}

func TestMatchKindEmpty(t *testing.T) {
	mustFail(t, `match_kind { }`, "at least one member")
}

func TestKeywordFieldNameApply(t *testing.T) {
	// t.apply() works even though apply is a keyword.
	prog := mustParse(t, `
control C(inout standard_metadata_t m) {
    action a() { }
    table t { key = { m.egress_spec: exact; } actions = { a; } }
    apply { t.apply(); }
}
`)
	if _, ok := prog.Control().Apply.Stmts[0].(*ast.ApplyStmt); !ok {
		t.Fatal("t.apply() not recognized")
	}
}

func TestIsLValueAndBase(t *testing.T) {
	cases := []struct {
		src  string
		isLV bool
		base string
	}{
		{"x", true, "x"},
		{"x.f.g", true, "x"},
		{"x[1].f", true, "x"},
		{"x + 1", false, ""},
		{"f(x)", false, ""},
		{"{a = 1}", false, ""},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := ast.IsLValue(e); got != c.isLV {
			t.Errorf("IsLValue(%q) = %t", c.src, got)
		}
		if got := ast.LValueBase(e); got != c.base {
			t.Errorf("LValueBase(%q) = %q, want %q", c.src, got, c.base)
		}
	}
}

func TestWidthLiterals(t *testing.T) {
	e, err := ParseExpr("8w255 + 4w3")
	if err != nil {
		t.Fatal(err)
	}
	bin := e.(*ast.Binary)
	x := bin.X.(*ast.IntLit)
	if !x.HasWidth || x.Width != 8 || x.Val != 255 {
		t.Errorf("lhs = %+v", x)
	}
	if e.String() != "(8w255 + 4w3)" {
		t.Errorf("render = %s", e.String())
	}
}

func TestMultipleControls(t *testing.T) {
	prog := mustParse(t, `
@pc(A)
control Alice(inout standard_metadata_t m) { apply { } }
@pc(B)
control Bob(inout standard_metadata_t m) { apply { } }
`)
	if len(prog.Controls) != 2 {
		t.Fatalf("controls = %d", len(prog.Controls))
	}
	if prog.Controls[1].Name != "Bob" || prog.Controls[1].PCLabel != "B" {
		t.Errorf("second control = %+v", prog.Controls[1])
	}
}

func TestDeepNestingDoesNotOverflow(t *testing.T) {
	depth := 200
	src := "control C(inout standard_metadata_t m) { apply { " +
		strings.Repeat("if (true) { ", depth) + "exit;" +
		strings.Repeat(" }", depth) + " } }"
	if _, err := Parse("deep.p4", src); err != nil {
		t.Fatalf("deep nesting: %v", err)
	}
}
