package mutate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/progs"
	"repro/internal/token"
)

// refMutate is the per-attempt path Seed.Mutate replaced, kept as the
// reference: it resolves the lattice, parses and prints the seed and
// parses the donor on every call, and reparses the canonical print for
// every attempt.
func refMutate(rng *rand.Rand, file, src string, cfg Config) (Result, error) {
	lat, err := gen.Config{Lattice: cfg.Lattice}.ResolveLattice()
	if err != nil {
		return Result{}, err
	}
	parent, err := parser.Parse(file, src)
	if err != nil {
		return Result{}, err
	}
	canon := ast.Print(parent)
	for attempt := 0; attempt < 16; attempt++ {
		prog := parser.MustParse(file, canon)
		m := &mutator{rng: rng, lat: lat}
		if cfg.Donor != "" {
			if donor, err := parser.Parse(file+"#donor", cfg.Donor); err == nil {
				m.donor = collect(donor)
			}
		}
		applied := m.apply(prog, 1+rng.Intn(2))
		if len(applied) == 0 {
			continue
		}
		out := ast.Print(prog)
		if out == canon || !valid(file, out, lat) {
			continue
		}
		return Result{Source: out, Ops: applied}, nil
	}
	return Result{}, fmt.Errorf("no valid mutant of %s", file)
}

// TestSeedMutateMatchesReparse checks that mutating from a Seed's cached
// trees draws exactly what the per-attempt reparse did: the same source,
// the same operators and the same next rng draw, over 2,000 seeds under
// three lattices, a third of them with a donor. Each Seed (and donor
// Seed) is reused for three mutations in a row, so a cached tree that an
// earlier mutation changed would show up as a diverging later one.
func TestSeedMutateMatchesReparse(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 200
	}
	specs := []string{"", "chain:4", "diamond"}
	for seed := int64(0); seed < seeds; seed++ {
		spec := specs[seed%int64(len(specs))]
		gcfg := gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 2, WithActions: true, Lattice: spec}
		src := gen.Random(rand.New(rand.NewSource(seed)), gcfg)
		cfg := Config{Lattice: spec}
		if seed%3 == 0 {
			cfg.Donor = gen.Random(rand.New(rand.NewSource(seed+50_000)), gcfg)
		}
		lat, err := gcfg.ResolveLattice()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed-%d.p4", seed)
		s, err := NewSeed(name, src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var donor *Seed
		if cfg.Donor != "" {
			if donor, err = NewSeed(name+"#donor", cfg.Donor); err != nil {
				t.Fatalf("seed %d donor: %v", seed, err)
			}
		}
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 3; round++ {
			res, err := s.Mutate(got, lat, donor)
			ref, refErr := refMutate(want, name, src, cfg)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("seed %d round %d: error %v, reference error %v", seed, round, err, refErr)
			}
			if res.Source != ref.Source || !reflect.DeepEqual(res.Ops, ref.Ops) {
				t.Fatalf("seed %d round %d: ops %v, reference ops %v\ngot:\n%s\nreference:\n%s",
					seed, round, res.Ops, ref.Ops, res.Source, ref.Source)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d round %d: next draw %d, reference %d", seed, round, g, w)
			}
		}
	}
}

// richSource spells every declaration, statement, expression and type
// form the parser builds.
const richSource = `
typedef <bit<8>, high> secret_t;
match_kind { exact, lpm }
header h_t {
    <bit<8>, low> a;
    secret_t b;
    <bit<4>, low>[2] s;
}
struct meta_t { bool f; int n; }
struct headers { h_t h; meta_t m; }
const bit<8> K = 8w7;
@pc(high)
control C(inout headers hdr, in bit<8> x, out bool o) {
    register <bit<8>, high> r[4];
    <bit<8>, low> v = 3;
    action set(bit<8> w) { hdr.h.a = w; }
    function bit<8> id(in bit<8> y) { return (y + 1); }
    function void nop() { return; }
    table t {
        key = { hdr.h.a : exact; hdr.h.b : lpm; }
        actions = { set(1); NoAction; }
        default_action = set(2);
    }
    apply {
        if (!(x > 1) && hdr.m.f) { t.apply(); } else if (x == 0) { exit; } else { hdr.h.b = id(~K); }
        { hdr.h.s[1] = 4w3; }
        hdr.m = {f = false, n = -2};
        r[1] = hdr.h.a;
        nop();
        o = true;
    }
}
`

// TestCopyProgramIsDeep: a copy shares no pointer or slice storage with
// the original, prints the same, and rewriting every site of the copy
// leaves the original's print unchanged.
func TestCopyProgramIsDeep(t *testing.T) {
	srcs := []string{richSource}
	for _, p := range progs.All() {
		srcs = append(srcs, p.Source(progs.Buggy), p.Source(progs.Fixed))
	}
	for seed := int64(0); seed < 50; seed++ {
		srcs = append(srcs, gen.Random(rand.New(rand.NewSource(seed)), gen.DefaultConfig()))
	}
	for i, src := range srcs {
		orig := parser.MustParse("orig.p4", src)
		before := ast.Print(orig)
		cp := copyProgram(orig)
		if got := ast.Print(cp); got != before {
			t.Fatalf("source %d: copy prints differently\ncopy:\n%s\noriginal:\n%s", i, got, before)
		}
		if shared := sharedStorage(orig, cp); shared != "" {
			t.Fatalf("source %d: copy shares %s with the original", i, shared)
		}
		s := collect(cp)
		for _, st := range s.secs {
			st.Label = "mutated"
		}
		for _, b := range s.bins {
			b.Op = token.STAR
		}
		for _, l := range s.ints {
			l.Val++
		}
		for _, b := range s.bools {
			b.Val = !b.Val
		}
		for _, b := range s.blocks {
			b.Stmts = append(b.Stmts, &ast.ExitStmt{})
		}
		for _, f := range s.ifs {
			f.Cond = &ast.BoolLit{Val: true}
		}
		if after := ast.Print(orig); after != before {
			t.Fatalf("source %d: mutating the copy changed the original\nbefore:\n%s\nafter:\n%s", i, before, after)
		}
	}
}

// sharedStorage reports the first pointer or non-empty slice backing
// array reachable from both a and b, or "" if there is none.
func sharedStorage(a, b *ast.Program) string {
	seen := map[uintptr]string{}
	var walk func(v reflect.Value, path string, record bool) string
	walk = func(v reflect.Value, path string, record bool) string {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return ""
			}
			if record {
				seen[v.Pointer()] = path
			} else if p, ok := seen[v.Pointer()]; ok {
				return p
			}
			return walk(v.Elem(), path+"*", record)
		case reflect.Interface:
			if v.IsNil() {
				return ""
			}
			return walk(v.Elem(), path, record)
		case reflect.Slice:
			if v.Cap() > 0 {
				if record {
					seen[v.Pointer()] = path + "[]"
				} else if p, ok := seen[v.Pointer()]; ok {
					return p
				}
			}
			for i := 0; i < v.Len(); i++ {
				if p := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), record); p != "" {
					return p
				}
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if p := walk(v.Field(i), path+"."+v.Type().Field(i).Name, record); p != "" {
					return p
				}
			}
		}
		return ""
	}
	walk(reflect.ValueOf(a), "prog", true)
	return walk(reflect.ValueOf(b), "prog", false)
}

// TestSeedMutateAllocs: a warm Seed skips the per-call parse, print and
// lattice resolution and the per-attempt reparse, so one mutation
// allocates well under what the reference path does for the same draws.
func TestSeedMutateAllocs(t *testing.T) {
	gcfg := gen.Config{MaxDepth: 2, MaxStmts: 4, NumFields: 2, WithActions: true}
	lat, err := gcfg.ResolveLattice()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		src := gen.Random(rand.New(rand.NewSource(seed)), gcfg)
		s, err := NewSeed("alloc.p4", src)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() { s.Mutate(rand.New(rand.NewSource(seed)), lat, nil) })
		ref := testing.AllocsPerRun(20, func() { refMutate(rand.New(rand.NewSource(seed)), "alloc.p4", src, Config{}) })
		t.Logf("seed %d: %.0f allocs per Seed.Mutate, %.0f per reference call", seed, got, ref)
		if got > 0.85*ref {
			t.Errorf("seed %d: Seed.Mutate allocates %.0f times, over 85%% of the reference's %.0f", seed, got, ref)
		}
	}
}
