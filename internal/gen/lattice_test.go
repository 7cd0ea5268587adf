package gen_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
)

// TestConfigLatticeValidation: the Lattice spec is handled explicitly —
// empty defaults to two-point, bad specs are rejected by Validate (and
// panic in Random, so misconfiguration cannot silently emit the wrong
// lattice's programs, which is what the pre-Lattice generator effectively
// did by ignoring height entirely).
func TestConfigLatticeValidation(t *testing.T) {
	for _, good := range []string{"", "two-point", "diamond", "chain:4", "chain-8", "nparty:3", "powerset:2", "product:two-point,two-point"} {
		cfg := gen.Config{Lattice: good}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"chain:0", "chain:x", "chain:4x", "nparty:-1", "powerset:0", "powerset:9", "tall"} {
		cfg := gen.Config{Lattice: bad}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%q) accepted a spec Random cannot honor", bad)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Random with an invalid lattice spec must panic (Validate was skipped)")
		}
	}()
	gen.Random(rand.New(rand.NewSource(1)), gen.Config{Lattice: "nope"})
}

// TestRandomChainLabelEmission locks chain-N generation in: programs
// generated against chain:4 annotate fields at every chain level —
// including the intermediate labels L1 and L2 that no two-point program
// can carry — and still resolve and base-check (the property sweep
// asserts that part; here we pin the emission itself).
func TestRandomChainLabelEmission(t *testing.T) {
	cfg := gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 2, WithActions: true, Lattice: "chain:4"}
	lat := lattice.Chain(4)
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		mustResolve(t, fmt.Sprintf("chain4-seed-%d.p4", seed), src, lat)
		for _, e := range lat.Elements() {
			if strings.Contains(src, "<bit<8>, "+e.Name()+">") {
				seen[e.Name()] = true
			}
		}
	}
	for _, want := range []string{"L0", "L1", "L2", "L3"} {
		if !seen[want] {
			t.Errorf("no generated program annotated a field at %s; chain height is being ignored", want)
		}
	}
}

// TestRandomPowersetLabelEmission: the label-spelling scheme end-to-end.
// Powerset elements spell as identifiers ("p_a_b"), so the generalized
// emitter can annotate fields at every subset — including the
// incomparable singletons — and the programs resolve against the
// lattice. This is the path `-lattice powerset:2` campaigns take.
func TestRandomPowersetLabelEmission(t *testing.T) {
	cfg := gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 2, WithActions: true, Lattice: "powerset:2"}
	lat, err := lattice.ByName("powerset:2")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		mustResolve(t, fmt.Sprintf("pset2-seed-%d.p4", seed), src, lat)
		for _, e := range lat.Elements() {
			if strings.Contains(src, "<bit<8>, "+e.Name()+">") {
				seen[e.Name()] = true
			}
		}
	}
	for _, want := range []string{"p_", "p_a", "p_b", "p_a_b"} {
		if !seen[want] {
			t.Errorf("no generated program annotated a field at %s; the powerset spelling is not reaching the emitter", want)
		}
	}
}

// TestRandomProductLabelEmission: product elements spell as identifiers
// ("x_low_high"), so the generalized emitter can annotate fields at every
// pair — including the incomparable mixed ones — and the programs resolve
// against the lattice. This is the path `-lattice product:a,b` campaigns
// take (the ROADMAP's "Product() element names still don't lex" item).
func TestRandomProductLabelEmission(t *testing.T) {
	const spec = "product:two-point,two-point"
	cfg := gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 2, WithActions: true, Lattice: spec}
	lat, err := lattice.ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		mustResolve(t, fmt.Sprintf("prod-seed-%d.p4", seed), src, lat)
		for _, e := range lat.Elements() {
			if strings.Contains(src, "<bit<8>, "+e.Name()+">") {
				seen[e.Name()] = true
			}
		}
	}
	for _, want := range []string{"x_low_low", "x_low_high", "x_high_low", "x_high_high"} {
		if !seen[want] {
			t.Errorf("no generated program annotated a field at %s; the product spelling is not reaching the emitter", want)
		}
	}
}

// TestRandomTwoPointUnchanged pins the two-point programs' shape and that
// spelling the lattice does not change them: recorded corpus metadata
// promises that GenSeed regenerates the original program, so the Lattice
// extension must not perturb the legacy stream.
func TestRandomTwoPointUnchanged(t *testing.T) {
	cfg := gen.DefaultConfig()
	src := gen.Random(rand.New(rand.NewSource(1)), cfg)
	withSpec := cfg
	withSpec.Lattice = "two-point"
	src2 := gen.Random(rand.New(rand.NewSource(1)), withSpec)
	if src != src2 {
		t.Fatal("spelling the two-point lattice explicitly changed the generated program")
	}
	// The legacy emitter's shape: low/high field pairs, no element-indexed
	// groups.
	if !strings.Contains(src, "<bit<8>, low> lo0;") || strings.Contains(src, "f0_0") {
		t.Fatalf("two-point emitter shape changed:\n%s", src)
	}
}
