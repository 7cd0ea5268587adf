package lexer

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/progs"
	"repro/internal/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := New("t", src).All()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	got := kinds(t, `control C ( inout bit<8> x ) { apply { x = x + 1 ; } }`)
	want := []token.Kind{
		token.CONTROL, token.IDENT, token.LPAREN, token.INOUT, token.BIT,
		token.LT, token.INT, token.GT, token.IDENT, token.RPAREN,
		token.LBRACE, token.APPLY, token.LBRACE, token.IDENT, token.ASSIGN,
		token.IDENT, token.PLUS, token.INT, token.SEMICOLON, token.RBRACE,
		token.RBRACE, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Kind{
		"==": token.EQ, "!=": token.NEQ, "<=": token.LEQ, ">=": token.GEQ,
		"<<": token.SHL, ">>": token.SHR, "&&": token.AND, "||": token.OR,
		"&": token.AMP, "|": token.PIPE, "^": token.CARET, "~": token.BITNOT,
		"!": token.NOT, "%": token.PERCENT, "@": token.AT, ".": token.DOT,
	}
	for src, want := range cases {
		got := kinds(t, src)
		if got[0] != want {
			t.Errorf("%q: got %s, want %s", src, got[0], want)
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, `
// line comment
x /* block
   comment */ y // trailing
`)
	want := []token.Kind{token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, err := New("t", "x /* never ends").All()
	if err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("err = %v, want unterminated block comment", err)
	}
}

func TestNumbers(t *testing.T) {
	toks, err := New("t", "0 42 0x1F 8w255 4w0xF 16w0").All()
	if err != nil {
		t.Fatal(err)
	}
	lits := []string{"0", "42", "0x1F", "8w255", "4w0xF", "16w0"}
	for i, want := range lits {
		if toks[i].Kind != token.INT || toks[i].Lit != want {
			t.Errorf("token %d: %v, want INT %q", i, toks[i], want)
		}
	}
}

func TestDecodeInt(t *testing.T) {
	cases := []struct {
		lit      string
		val      uint64
		width    int
		hasWidth bool
		ok       bool
	}{
		{"0", 0, 0, false, true},
		{"42", 42, 0, false, true},
		{"0x1F", 31, 0, false, true},
		{"8w255", 255, 8, true, true},
		{"4w0xF", 15, 4, true, true},
		{"0w5", 0, 0, true, false},  // zero width
		{"65w1", 0, 0, true, false}, // width too large
	}
	for _, c := range cases {
		v, w, hw, err := DecodeInt(c.lit)
		if c.ok && (err != nil || v != c.val || w != c.width || hw != c.hasWidth) {
			t.Errorf("DecodeInt(%q) = %d,%d,%t,%v; want %d,%d,%t", c.lit, v, w, hw, err, c.val, c.width, c.hasWidth)
		}
		if !c.ok && err == nil {
			t.Errorf("DecodeInt(%q) succeeded, want error", c.lit)
		}
	}
}

func TestBadNumberSuffix(t *testing.T) {
	_, err := New("t", "42abc").All()
	if err == nil {
		t.Fatal("42abc lexed without error")
	}
}

func TestIllegalCharacter(t *testing.T) {
	_, err := New("t", "x $ y").All()
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}

func TestPositions(t *testing.T) {
	toks, err := New("f.p4", "a\n  b\n\tc").All()
	if err != nil {
		t.Fatal(err)
	}
	type pos struct{ line, col int }
	want := []pos{{1, 1}, {2, 3}, {3, 2}}
	for i, w := range want {
		if toks[i].Pos.Line != w.line || toks[i].Pos.Col != w.col {
			t.Errorf("token %d at %s, want %d:%d", i, toks[i].Pos, w.line, w.col)
		}
		if toks[i].Pos.File != "f.p4" {
			t.Errorf("token %d file %q", i, toks[i].Pos.File)
		}
	}
}

func TestPushback(t *testing.T) {
	l := New("t", "a b")
	t1, _ := l.Next()
	l.Push(t1)
	t1b, _ := l.Next()
	if t1 != t1b {
		t.Fatalf("pushback: got %v, want %v", t1b, t1)
	}
	t2, _ := l.Next()
	if t2.Lit != "b" {
		t.Fatalf("after pushback: got %v", t2)
	}
}

func TestKeywordsLookup(t *testing.T) {
	for _, kw := range []string{"control", "action", "table", "apply", "if", "else",
		"exit", "return", "header", "struct", "typedef", "match_kind", "in",
		"inout", "out", "bit", "bool", "int", "void", "function", "const"} {
		if token.LookupIdent(kw) == token.IDENT {
			t.Errorf("%q should be a keyword", kw)
		}
	}
	for _, id := range []string{"key", "actions", "default_action", "entries",
		"hdr", "low", "high", "x"} {
		if token.LookupIdent(id) != token.IDENT {
			t.Errorf("%q should be an identifier", id)
		}
	}
}

// TestLexerNeverPanics fuzzes the lexer with random byte strings: it must
// return tokens or an error, never panic, and always terminate.
func TestLexerNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(128))
		}
		l := New("fuzz", string(b))
		for i := 0; i < int(n)+2; i++ {
			tk, err := l.Next()
			if err != nil {
				return true
			}
			if tk.Kind == token.EOF {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripStability: lexing the rendered token stream of a valid
// program yields the same kinds (spacing-insensitive).
func TestRoundTripStability(t *testing.T) {
	src := `control C(inout bit<8> x) { apply { if (x == 8w3) { x = x << 1; } } }`
	first, err := New("a", src).All()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tk := range first {
		if tk.Kind == token.EOF {
			break
		}
		if tk.Lit != "" {
			b.WriteString(tk.Lit)
		} else {
			b.WriteString(tk.Kind.String())
		}
		b.WriteString(" ")
	}
	second, err := New("b", b.String()).All()
	if err != nil {
		t.Fatalf("relex: %v\n%s", err, b.String())
	}
	if len(first) != len(second) {
		t.Fatalf("token count changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Kind != second[i].Kind {
			t.Errorf("token %d kind changed: %s vs %s", i, first[i].Kind, second[i].Kind)
		}
	}
}

// scanEdgeInputs are hand-written inputs for TestScanMatchesNext: comments
// of both kinds, unterminated ones and ones holding a NUL, the >> and >=
// tokens the parser splits through Push, hex and width-prefixed literals
// and their malformed forms, a digit followed by an identifier, illegal and
// NUL bytes, and mixed whitespace.
var scanEdgeInputs = []string{
	"", "   ", "\r\n\t mixed  whitespace\n\n x\t\ty",
	"// line only", "x // trailing\ny", "x //\n//\n y",
	"/* block */ x", "/* multi\nline\n */ y", "a/**/b", "/*/ x */ z", "/* ** / */ q",
	"x /* never ends", "/*", "/* ends with star *", "/* nul \x00 */ after",
	"// comment\x00 still", "x\x00y", "\x00 x",
	">> >= > >>= <<= <= << < >>>", "bit<bit<8>> x; <bit<8>, high>= y;",
	"a==b!=c&&d||e&f|g^h~i!j%k@l.m", "(){}[],;:+-*/",
	"0 42 0x1F 0XaB 8w255 4w0xF 4w0XF 16w0 64w18446744073709551615",
	"0x", "0xg", "8w0xg", "8w0x", "8wz", "9w", "12abc", "0x1Fg", "7_", "3w4w5",
	"a $ b", "\xff", "é", "x\\y", "`", "\"str\"",
	"_a1 b_2 __ apply control inout match_kind true false",
}

// TestScanMatchesNext checks that Scan and Next produce the same token
// stream as the byte-at-a-time reference scanner: kinds, literals,
// positions and errors, token by token, including after an error and
// with >> and >= split through Push the way the parser does. Scan writes
// every token into the same variable, so a field it fails to reset shows.
func TestScanMatchesNext(t *testing.T) {
	var inputs []string
	inputs = append(inputs, scanEdgeInputs...)
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed, progs.Unannotated} {
			inputs = append(inputs, p.Source(v))
		}
	}
	files, err := filepath.Glob("../../testdata/regression-corpus/findings/*.p4")
	if err != nil || len(files) == 0 {
		t.Fatalf("regression corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(b))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		cfg := gen.DefaultConfig()
		cfg.Lattice = []string{"two-point", "diamond", "chain:4", "powerset:2"}[i%4]
		inputs = append(inputs, gen.Random(rng, cfg))
	}
	inputs = append(inputs, gen.Synth(4, 2, 3), gen.SynthChainLabels(6))

	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for n, src := range inputs {
		ref, nx, sc := newRef("f.p4", src), New("f.p4", src), New("f.p4", src)
		split := rand.New(rand.NewSource(int64(n)))
		var tok token.Token
		for i := 0; i <= len(src)+1; i++ {
			want, wantErr := ref.Next()
			got, gotErr := nx.Next()
			scanErr := sc.Scan(&tok)
			if got != want || errText(gotErr) != errText(wantErr) {
				t.Fatalf("input %d token %d: Next = %+v, %v; reference %+v, %v\n%q", n, i, got, gotErr, want, wantErr, src)
			}
			if tok != want || errText(scanErr) != errText(wantErr) {
				t.Fatalf("input %d token %d: Scan = %+v, %v; reference %+v, %v\n%q", n, i, tok, scanErr, want, wantErr, src)
			}
			if want.Kind == token.EOF && wantErr == nil {
				break
			}
			if (want.Kind == token.SHR || want.Kind == token.GEQ) && split.Intn(2) == 0 {
				half := token.Token{Kind: token.GT, Pos: want.Pos}
				if want.Kind == token.GEQ {
					half.Kind = token.ASSIGN
				}
				half.Pos.Col++
				ref.Push(half)
				nx.Push(half)
				sc.Push(half)
			}
		}
	}
	t.Logf("%d inputs lex identically", len(inputs))
}
