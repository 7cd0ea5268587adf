package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
)

// fuelSrc runs about 2^21 statements in one control invocation, twice the
// evaluator's fuel: each fK calls f(K-1) twice.
func fuelSrc() string {
	var b strings.Builder
	b.WriteString("struct meta_t { <bit<8>, low> a; }\ncontrol C(inout meta_t m) {\n")
	b.WriteString("    action f0() { m.a = m.a + 8w1; }\n")
	for k := 1; k <= 20; k++ {
		fmt.Fprintf(&b, "    action f%d() { f%d(); f%d(); }\n", k, k-1, k-1)
	}
	b.WriteString("    apply {\n        f20();\n    }\n}\n")
	return b.String()
}

// TestCompiledErrorMessages pins the text of three run-time errors whose
// source position the compiler formats only when the error happens: the
// fuel limit, an undeclared variable, and an argument that is not an
// l-value where the parameter needs one. The compiled engine and the
// interpreter must both produce exactly these strings.
func TestCompiledErrorMessages(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{
			name: "fuel",
			src:  fuelSrc(),
			want: "fuel.p4:3:19: evaluation fuel exhausted",
		},
		{
			name: "undeclared-read",
			src: `
struct meta_t { <bit<8>, low> a; }
control C(inout meta_t m) {
    apply {
        m.a = zz + 8w1;
    }
}`,
			want: `undeclared-read.p4:5:15: undeclared variable "zz"`,
		},
		{
			name: "undeclared-write",
			src: `
struct meta_t { <bit<8>, low> a; }
control C(inout meta_t m) {
    apply {
        zz.b = m.a;
    }
}`,
			want: `undeclared-write.p4:5:9: undeclared variable "zz"`,
		},
		{
			name: "not-an-lvalue",
			src: `
struct meta_t { <bit<8>, low> a; }
control C(inout meta_t m) {
    action bump(inout <bit<8>, low> x) { x = x + 8w1; }
    apply {
        bump(m.a + 8w1);
    }
}`,
			want: "not-an-lvalue.p4:6:18: (m.a + 8w1) is not an l-value",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := parser.Parse(c.name+".p4", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			in, err := eval.New(prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = in.RunControl("", nil)
			if got := errString(err); got != c.want {
				t.Errorf("interpreter: %s, want %s", got, c.want)
			}
			code, err := eval.Compile(prog)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, _, err = eval.RunNamed(eval.NewMachine(code, nil), "", nil)
			if got := errString(err); got != c.want {
				t.Errorf("compiled: %s, want %s", got, c.want)
			}
		})
	}
}
