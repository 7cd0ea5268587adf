package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/parser"
)

// diagEdgePrograms reach the diagnostics whose operands may be missing:
// unresolvable return, parameter and variable types, undeclared names,
// calls and tables that do not fit their callee.
var diagEdgePrograms = []string{
	`control C(inout bit<8> x) { function foo_t f() { return x; } apply { } }`,
	`control C(inout bit<8> x) { function foo_t f() { return; } apply { } }`,
	`control C(inout bit<8> x) { function <bit<8>, nolabel> f() { return x; } apply { } }`,
	`control C(inout bit<8> x) { function bit<8> f(in foo_t a) { return a; } apply { x = f(x); } }`,
	`control C(inout bit<8> x) { action a(foo_t v) { x = v; } table t { key = { x : exact; } actions = { a; } } apply { t.apply(); } }`,
	`control C(inout bit<8> x) { apply { foo_t y = x; x = y; } }`,
	`control C(inout bit<8> x) { apply { x = nope(x); undeclared = 1; nope(); } }`,
	`control C(inout bit<8> x) { apply { x.f = 1; x[0] = 1; x(); } }`,
	`control C(inout bit<8> x) { action a(inout bit<8> v) { v = 1; } apply { a(); a(x, x); a(1); } }`,
	`control C(inout bit<8> x) { table t { key = { y : exact; x : fuzzy; } actions = { b; x; } } apply { t.apply(); x.apply(); } }`,
	`control C(inout bit<8> x) { function void f() { return x; } apply { return; exit; } }`,
	`control C(inout bit<8> x, inout bit<8> x) { bit<8> x; apply { bool b = x; if (x) { } } }`,
	`typedef foo_t bar_t; header h { bar_t f; h g; } control C(inout h x) { apply { x.f = x.g; } }`,
	`control C(inout <bit<8>, high> x, inout <bit<8>, low> y) { action a(in <bit<8>, low> v) { y = v; } apply { a(x); if (x == 1) { a(y); y = 1; } } }`,
	`@pc(nolabel) control C(inout bit<8> x) { apply { x = {a = 1}; x = !x; x = -true; x = ~true; } }`,
}

// TestDiagnosticsFormatCleanly checks that no base or IFC diagnostic
// carries a fmt error such as %!s(<nil>): over the edge programs above and
// over generated programs and their mutants under four lattices.
func TestDiagnosticsFormatCleanly(t *testing.T) {
	type input struct {
		name, src, spec string
	}
	var inputs []input
	for i, src := range diagEdgePrograms {
		inputs = append(inputs, input{fmt.Sprintf("edge-%d.p4", i), src, "two-point"})
	}
	for _, spec := range []string{"two-point", "chain:4", "diamond", "powerset:2"} {
		rng := rand.New(rand.NewSource(int64(len(spec))))
		cfg := gen.DefaultConfig()
		cfg.Lattice = spec
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("gen-%s-%d.p4", spec, i)
			src := gen.Random(rng, cfg)
			inputs = append(inputs, input{name, src, spec})
			if m, err := mutate.Mutate(rng, name, src, mutate.Config{Lattice: spec}); err == nil {
				inputs = append(inputs, input{name + "#mutant", m.Source, spec})
			}
		}
	}
	seen := 0
	for _, in := range inputs {
		prog, err := parser.Parse(in.name, in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		lat, err := gen.Config{Lattice: in.spec}.ResolveLattice()
		if err != nil {
			t.Fatal(err)
		}
		for checker, diags := range map[string][]*diag.Diagnostic{
			"base": basecheck.Check(prog).Diags,
			"ifc":  core.Check(prog, lat).Diags,
		} {
			for _, d := range diags {
				seen++
				if strings.Contains(d.Error(), "%!") {
					t.Errorf("%s: %s diagnostic is badly formatted: %s", in.name, checker, d)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no diagnostics at all; the edge programs no longer reach the checkers' error paths")
	}
	t.Logf("%d programs, %d diagnostics", len(inputs), seen)
}
