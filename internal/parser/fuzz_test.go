package parser_test

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/progs"
)

// seedCorpus adds every embedded case-study variant plus a few generated
// and adversarial sources to the fuzz corpus.
func seedCorpus(f *testing.F) {
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed, progs.Unannotated} {
			f.Add(p.Source(v))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(gen.Random(rng, gen.DefaultConfig()))
	}
	f.Add(gen.Synth(2, 2, 2))
	f.Add(gen.SynthChainLabels(3))
	// Adversarial fragments: deep nesting, split >> tokens, stray bytes in
	// a comment and outside one. A NUL is not the end of the input, so
	// the last two are syntax errors.
	f.Add("control C(inout bit<8> x) { apply { x = ((((x)))); } }")
	f.Add("header h { bit<8>[4][2] s; }")
	f.Add("typedef <bit<8>, high> t8;")
	f.Add("control C() { apply { if (true) { exit; } else if (false) { return; } } }")
	f.Add("// \x00\xff{<>>=")
	f.Add("const bit<64> x = 64w18446744073709551615;")
	f.Add("\x00\xff{<>>=")
	f.Add("control C(inout bit<8> x) { apply { x = x + 1; } }\x00 this is not P4 {{{")
}

// FuzzParse asserts the parser never panics: it must either return a
// program or a syntax error for arbitrary input.
func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.p4", src)
		if err == nil && prog == nil {
			t.Fatal("nil program with nil error")
		}
	})
}

// FuzzRoundtrip asserts parse → print → reparse is lossless on the printed
// form: any input the parser accepts must print to source the parser also
// accepts, and the second parse must print identically (printing is a
// fixed point after one iteration).
func FuzzRoundtrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.p4", src)
		if err != nil {
			t.Skip()
		}
		printed := ast.Print(prog)
		reparsed, err := parser.Parse("fuzz.p4", printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\nprinted:\n%s", err, printed)
		}
		if again := ast.Print(reparsed); again != printed {
			t.Fatalf("print not a fixed point:\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
	})
}
