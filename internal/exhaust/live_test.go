package exhaust_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/exhaust"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

// sweepPair runs the pinned and the unpinned sweep of one experiment,
// each on a fresh experiment over the same compiled program, and fails
// unless both give the same Result and error and the unpinned one counts
// exactly its runs. It returns both run counts.
func sweepPair(t *testing.T, name string, prog *ast.Program, lat lattice.Lattice, obs lattice.Label, o exhaust.Oracle, seed int64) (pinned, unpinned uint64) {
	t.Helper()
	code, _ := eval.Compile(prog) // nil on failure: both sweeps report compile-failed
	sweep := func(pin bool) (ni.Result, uint64, string) {
		e := &ni.Experiment{Prog: prog, Lat: lat, Observer: obs, Code: code, Interp: code == nil}
		res, runs, err := exhaust.Sweep(o, e, seed, pin)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		return res, runs, msg
	}
	pr, pruns, perr := sweep(true)
	ur, uruns, uerr := sweep(false)
	// The unpinned sweep runs every assignment it covers, so its counts
	// are its runs.
	if ur.Assignments != uruns || uint64(ur.Trials) != uruns {
		t.Fatalf("%s (observer %s): unpinned sweep made %d runs but reports %d assignments, %d trials", name, obs.Name(), uruns, ur.Assignments, ur.Trials)
	}
	if !reflect.DeepEqual(pr, ur) || perr != uerr {
		t.Fatalf("%s (observer %s): pinned sweep %+v (err %q), unpinned %+v (err %q)", name, obs.Name(), pr, perr, ur, uerr)
	}
	if pruns > uruns {
		t.Fatalf("%s (observer %s): pinned sweep made %d runs, unpinned %d", name, obs.Name(), pruns, uruns)
	}
	return pruns, uruns
}

// TestPinnedSweepsMatchUnpinned is the differential check of the
// entry-liveness pass: pinning the secret leaves a control never reads
// must not change any Result — verdict, reason, totality, covered counts
// or witness — on generated programs over five lattices, on every
// case-study variant at every observer, and on the regression corpus.
func TestPinnedSweepsMatchUnpinned(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		o := exhaust.Oracle{Budget: 1 << 10}
		var pinned, unpinned uint64
		n := 0
		for _, spec := range []string{"two-point", "diamond", "chain:4", "nparty:3", "powerset:2"} {
			lat, err := lattice.ByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			elems := lat.Elements()
			for _, fields := range []int{1, 2} {
				cfg := gen.DefaultConfig()
				cfg.Lattice, cfg.NumFields = spec, fields
				rng := rand.New(rand.NewSource(int64(1000*fields + len(spec))))
				for i := 0; i < 200; i++ {
					name := fmt.Sprintf("%s-f%d-%d.p4", spec, fields, i)
					prog := parser.MustParse(name, gen.Random(rng, cfg))
					p, u := sweepPair(t, name, prog, lat, elems[i%len(elems)], o, int64(i))
					pinned, unpinned = pinned+p, unpinned+u
					n++
				}
			}
		}
		if pinned >= unpinned {
			t.Errorf("pinning saved no runs over %d generated programs (%d pinned, %d unpinned)", n, pinned, unpinned)
		}
		t.Logf("%d generated programs: %d machine runs pinned, %d unpinned", n, pinned, unpinned)
	})
	t.Run("case-studies", func(t *testing.T) {
		for _, p := range progs.All() {
			lat := p.Lattice()
			for _, v := range []progs.Variant{progs.Buggy, progs.Fixed, progs.Unannotated} {
				prog := parser.MustParse(p.FileName(v), p.Source(v))
				for _, obs := range lat.Elements() {
					sweepPair(t, prog.File, prog, lat, obs, exhaust.Oracle{}, 7)
				}
			}
		}
	})
	t.Run("regression-corpus", func(t *testing.T) {
		dir := filepath.Join("..", "..", "testdata", "regression-corpus", "findings")
		files, err := filepath.Glob(filepath.Join(dir, "*.p4"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no corpus programs in %s (%v)", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			metaBytes, err := os.ReadFile(strings.TrimSuffix(f, ".p4") + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var meta struct {
				Gen struct{ Lattice string }
			}
			if err := json.Unmarshal(metaBytes, &meta); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			lat, err := lattice.ByName(meta.Gen.Lattice)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			prog := parser.MustParse(filepath.Base(f), string(src))
			for _, obs := range lat.Elements() {
				sweepPair(t, prog.File, prog, lat, obs, exhaust.Oracle{}, 7)
			}
		}
	})
}

// liveSrc wraps a control body in a program whose secret leaves are
// hdr.d.a, hdr.d.b, hdr.d.c, a two-element stack hdr.s and a bool guard.
// They are 2 bits wide, so the whole input space (2^13 assignments) fits
// the default budget and every sweep of it is total.
func liveSrc(locals, apply string) *ast.Program {
	return parser.MustParse("live.p4", `
header data_t {
    <bit<2>, high> a;
    <bit<2>, high> b;
    <bit<2>, high> c;
    <bit<2>, low> lo;
    <bool, high> g;
}
header elem_t { <bit<2>, high> f; }
struct headers { data_t d; elem_t[2] s; }
control C(inout headers hdr) {
    function bit<2> twice(in bit<2> x) { return x + x; }
`+locals+`
    apply {
`+apply+`
    }
}
`)
}

// liveLeaves are liveSrc's secret leaves.
var liveLeaves = []string{"hdr.d.a", "hdr.d.b", "hdr.d.c", "hdr.d.g", "hdr.s[0].f", "hdr.s[1].f"}

// TestEntryReads locks each rule of the entry-liveness pass, and checks
// that the pinned sweep of each program gives the unpinned sweep's
// Result.
func TestEntryReads(t *testing.T) {
	cases := []struct {
		name, locals, apply string
		want                []string
	}{
		{"nothing read", "", `hdr.d.lo = 2w1;`, nil},
		{"read", "", `hdr.d.lo = hdr.d.a;`, []string{"hdr.d.a"}},
		{"write before read", "", `hdr.d.a = 2w1; hdr.d.lo = hdr.d.a;`, nil},
		{"read before write", "", `hdr.d.lo = hdr.d.a; hdr.d.a = 2w1;`, []string{"hdr.d.a"}},
		{"self update", "", `hdr.d.a = hdr.d.a + 2w1;`, []string{"hdr.d.a"}},
		{"guard", "", `if (hdr.d.g) { hdr.d.lo = 2w1; }`, []string{"hdr.d.g"}},
		{"write in one arm", "", `if (hdr.d.lo == 2w0) { hdr.d.a = 2w1; } hdr.d.lo = hdr.d.a;`, []string{"hdr.d.a"}},
		{"write in both arms", "", `if (hdr.d.lo == 2w0) { hdr.d.a = 2w1; } else { hdr.d.a = 2w2; } hdr.d.lo = hdr.d.a;`, nil},
		{"whole-header copy", "", `hdr.d.b = 2w0; hdr.s[0] = hdr.d;`, []string{"hdr.d.a", "hdr.d.c", "hdr.d.g"}},
		{"whole-header write", "", `hdr.d = hdr.d; hdr.d.lo = hdr.d.a;`, []string{"hdr.d.a", "hdr.d.b", "hdr.d.c", "hdr.d.g"}},
		{"partial write then whole read", "", `hdr.d.b = 2w1; hdr.d = hdr.d; hdr.d.lo = hdr.d.b;`,
			[]string{"hdr.d.a", "hdr.d.c", "hdr.d.g"}},
		{"constant index", "", `hdr.d.lo = hdr.s[0].f;`, []string{"hdr.s[0].f"}},
		// An out-of-range read yields a copy of element 0.
		{"index reads element 0", "", `hdr.d.lo = hdr.s[1].f;`, []string{"hdr.s[0].f", "hdr.s[1].f"}},
		{"out-of-range index", "", `hdr.d.lo = hdr.s[2].f;`, []string{"hdr.s[0].f"}},
		{"index write", "", `hdr.s[1].f = 2w0; hdr.d.lo = hdr.s[1].f;`, []string{"hdr.s[0].f"}},
		{"dynamic index", "", `hdr.d.lo = hdr.s[hdr.d.lo].f;`, liveLeaves},
		{"dynamic index write", "", `hdr.s[hdr.d.lo].f = 2w0;`, liveLeaves},
		{"method call", "", `hdr.d.setValid();`, liveLeaves},
		{"builtin", "", `mark_to_drop(hdr.d); hdr.d.lo = hdr.d.c;`, []string{"hdr.d.a", "hdr.d.b", "hdr.d.c", "hdr.d.g"}},
		{"recursion", "action act() { act(); }", `act();`, liveLeaves},
		{"exit", "", `if (hdr.d.lo == 2w0) { exit; } else { hdr.d.a = 2w1; } hdr.d.lo = hdr.d.a;`, nil},
		{"exit ends the path", "", `exit; hdr.d.lo = hdr.d.a;`, nil},
		{"call argument", "", `hdr.d.lo = twice(hdr.d.c);`, []string{"hdr.d.c"}},
		{"call argument after write", "", `hdr.d.c = 2w1; hdr.d.lo = twice(hdr.d.c);`, nil},
		{"whole-header argument", "action act(inout data_t d) { d.lo = 2w0; }", `act(hdr.d);`,
			[]string{"hdr.d.a", "hdr.d.b", "hdr.d.c", "hdr.d.g"}},
		{"action inline", "action act() { hdr.d.b = hdr.d.a; }", `act(); hdr.d.lo = hdr.d.b;`, []string{"hdr.d.a"}},
		{"action write counts", "action act() { hdr.d.a = 2w0; }", `act(); hdr.d.lo = hdr.d.a;`, nil},
		{"action with return", "action act() { hdr.d.a = 2w0; if (hdr.d.lo == 2w0) { return; } hdr.d.lo = hdr.d.b; }",
			`act(); hdr.d.lo = hdr.d.a;`, []string{"hdr.d.a", "hdr.d.b"}},
		{"action exit", "action act() { hdr.d.a = 2w0; exit; }", `act(); hdr.d.lo = hdr.d.b;`, nil},
		{"table keys and actions",
			"action set() { hdr.d.lo = hdr.d.b; hdr.d.c = 2w0; }\n" +
				"table t { key = { hdr.d.a : exact; } actions = { set; NoAction; } default_action = NoAction; }",
			`t.apply(); hdr.d.lo = hdr.d.c;`, []string{"hdr.d.a", "hdr.d.b", "hdr.d.c"}},
		{"local shadows a parameter", "", `bit<2> hdr = 2w0; hdr.d.lo = 2w1;`, liveLeaves},
		{"control local shadows a parameter", "bit<2> hdr = 2w0;", `hdr.d.lo = 2w1;`, liveLeaves},
		{"action parameter shadows a parameter", "action act(in bit<2> hdr) { }", `act(2w1);`, liveLeaves},
		{"local shadows an action", "action act() { hdr.d.a = 2w0; }", `bit<2> act = 2w0; hdr.d.lo = hdr.d.a;`, liveLeaves},
		{"local initializer", "bit<2> x = hdr.d.c;", `hdr.d.lo = 2w1;`, []string{"hdr.d.c"}},
		// Ill-typed, but the pass must not assume typing: the right
		// operand of && may not run, so its writes do not count.
		{"short circuit", "action act() { hdr.d.a = 2w0; }",
			`if (hdr.d.g && act()) { } hdr.d.lo = hdr.d.a;`, []string{"hdr.d.a", "hdr.d.g"}},
		{"unknown callee", "", `hdr.d.lo = nosuch(2w1);`, liveLeaves},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := liveSrc(tc.locals, tc.apply)
			got := exhaust.EntryReads(prog, liveLeaves...)
			if !slices.Equal(got, tc.want) {
				t.Errorf("entry reads %v, want %v", got, tc.want)
			}
			lat := lattice.TwoPoint()
			sweepPair(t, tc.name, prog, lat, lat.Bottom(), exhaust.Oracle{}, 1)
		})
	}
}
