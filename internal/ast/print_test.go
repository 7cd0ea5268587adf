package ast_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/progs"
)

// roundtrip parses src, prints it, reparses, and requires the second print
// to equal the first.
func roundtrip(t *testing.T, name, src string) string {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: seed source does not parse: %v", name, err)
	}
	printed := ast.Print(prog)
	reparsed, err := parser.Parse(name, printed)
	if err != nil {
		t.Fatalf("%s: printed form does not reparse: %v\n%s", name, err, printed)
	}
	if again := ast.Print(reparsed); again != printed {
		t.Fatalf("%s: print is not a fixed point\nfirst:\n%s\nsecond:\n%s", name, printed, again)
	}
	return printed
}

// TestPrintRoundtripCaseStudies roundtrips every embedded case study in
// every variant.
func TestPrintRoundtripCaseStudies(t *testing.T) {
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed, progs.Unannotated} {
			roundtrip(t, p.FileName(v), p.Source(v))
		}
	}
}

// TestPrintRoundtripGenerated roundtrips generated programs, both the
// deterministic synthetic families and random draws.
func TestPrintRoundtripGenerated(t *testing.T) {
	roundtrip(t, "synth.p4", gen.Synth(4, 3, 4))
	roundtrip(t, "chain.p4", gen.SynthChainLabels(5))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		roundtrip(t, "rand.p4", gen.Random(rng, gen.DefaultConfig()))
	}
}

// TestPrintPreservesVerdict checks printing does not change the IFC
// checker's verdict: the reprinted program is semantically the program.
func TestPrintPreservesVerdict(t *testing.T) {
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed} {
			src := p.Source(v)
			lat := p.Lattice()
			orig := core.Check(parser.MustParse("a.p4", src), lat)
			printed := roundtrip(t, p.FileName(v), src)
			re := core.Check(parser.MustParse("b.p4", printed), lat)
			if orig.OK != re.OK {
				t.Errorf("%s %s: verdict changed after print: %v -> %v",
					p.Name, v, orig.OK, re.OK)
			}
		}
	}
}

// syntaxDetails spells the surface details the parser is picky about.
const syntaxDetails = `
typedef <bit<8>, high> secret_t;
match_kind { exact, lpm }
header h_t {
    <bit<8>, low> a;
    secret_t b;
}
struct headers { h_t h; }
const bit<8> K = 8w7;
@pc(high)
control C(inout headers hdr, in bit<8> x) {
    register bit<8> r[4];
    action set(bit<8> v) { hdr.h.a = v; }
    function bit<8> id(in bit<8> y) { return y; }
    table t {
        key = { hdr.h.a : exact; }
        actions = { set(1); NoAction; }
        default_action = NoAction;
    }
    apply {
        if (x > 1) { t.apply(); } else if (x == 0) { exit; } else { hdr.h.b = id(K); }
        r[1] = hdr.h.a;
    }
}
`

// TestPrintSyntaxDetails locks in surface details the parser is picky
// about: @pc annotations, register arrays, default actions, else-if.
func TestPrintSyntaxDetails(t *testing.T) {
	printed := roundtrip(t, "details.p4", syntaxDetails)
	for _, want := range []string{
		"@pc(high)", "register bit<8>[4] r;", "default_action = NoAction;",
		"} else if ", "<bit<8>, high>", "function bit<8> id(in bit<8> y)",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("printed form missing %q:\n%s", want, printed)
		}
	}
}
