package eval_test

// Differential equivalence: the compiled engine must be observationally
// identical to the tree-walking interpreter — same outputs, same signals,
// and byte-identical error strings — across generated programs on three
// lattices and the embedded case studies (including multi-packet stateful
// runs). Run under -race this also exercises sharing one Compiled program
// across goroutines, which is how internal/ni uses it.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/progs"
)

// runInterpSeq runs a packet sequence on a fresh interpreter, stopping at
// the first error (state after an error is unspecified).
func runInterpSeq(prog *ast.Program, cp *controlplane.ControlPlane, seq []map[string]eval.Value) ([]map[string]eval.Value, []eval.Signal, error) {
	in, err := eval.New(prog, cp)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]map[string]eval.Value, 0, len(seq))
	sigs := make([]eval.Signal, 0, len(seq))
	for _, inputs := range seq {
		out, sig, err := in.RunControl("", inputs)
		if err != nil {
			return outs, sigs, err
		}
		outs = append(outs, out)
		sigs = append(sigs, sig)
	}
	return outs, sigs, nil
}

// runMachineSeq is runInterpSeq on a reset compiled machine.
func runMachineSeq(m *eval.Machine, seq []map[string]eval.Value) ([]map[string]eval.Value, []eval.Signal, error) {
	m.Reset()
	outs := make([]map[string]eval.Value, 0, len(seq))
	sigs := make([]eval.Signal, 0, len(seq))
	for _, inputs := range seq {
		out, sig, err := eval.RunNamed(m, "", inputs)
		if err != nil {
			return outs, sigs, err
		}
		outs = append(outs, out)
		sigs = append(sigs, sig)
	}
	return outs, sigs, nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffProgram runs both engines over identical random packet sequences and
// reports the first divergence.
func diffProgram(prog *ast.Program, code *eval.Compiled, trials, packets int, seed int64) error {
	if len(prog.Controls) == 0 {
		return nil
	}
	ctrl := prog.Controls[0]
	in, err := eval.New(prog, nil)
	if err != nil {
		return fmt.Errorf("interp load: %v", err)
	}
	mach := eval.NewMachine(code, nil)
	rng := rand.New(rand.NewSource(seed))
	for tr := 0; tr < trials; tr++ {
		seq := make([]map[string]eval.Value, packets)
		for k := range seq {
			inputs := map[string]eval.Value{}
			for _, p := range ctrl.Params {
				st, err := in.ParamType(ctrl.Name, p.Name)
				if err != nil {
					return fmt.Errorf("param %s: %v", p.Name, err)
				}
				inputs[p.Name] = eval.Random(st.T, rng)
			}
			seq[k] = inputs
		}
		outsI, sigsI, errI := runInterpSeq(prog, nil, seq)
		outsC, sigsC, errC := runMachineSeq(mach, seq)
		if errString(errI) != errString(errC) {
			return fmt.Errorf("trial %d: error mismatch:\n  interp:   %s\n  compiled: %s", tr, errString(errI), errString(errC))
		}
		if len(outsI) != len(outsC) {
			return fmt.Errorf("trial %d: packet count mismatch: %d vs %d", tr, len(outsI), len(outsC))
		}
		for k := range outsI {
			if sigsI[k].Kind != sigsC[k].Kind || sigsI[k].String() != sigsC[k].String() {
				return fmt.Errorf("trial %d packet %d: signal mismatch: %s vs %s", tr, k, sigsI[k], sigsC[k])
			}
			for name, vi := range outsI[k] {
				vc, ok := outsC[k][name]
				if !ok {
					return fmt.Errorf("trial %d packet %d: compiled output missing %q", tr, k, name)
				}
				if !eval.ValueEqual(vi, vc) {
					return fmt.Errorf("trial %d packet %d: output %s differs:\n  interp:   %s\n  compiled: %s", tr, k, name, vi, vc)
				}
			}
			if len(outsI[k]) != len(outsC[k]) {
				return fmt.Errorf("trial %d packet %d: output arity mismatch", tr, k)
			}
		}
	}
	return nil
}

func TestCompiledMatchesInterpGenerated(t *testing.T) {
	specs := []string{"two-point", "chain:4", "nparty:3"}
	perLattice := 170 // ≥500 programs total across the three lattices
	if testing.Short() {
		perLattice = 30
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x5eed + int64(len(spec))))
			cfg := gen.DefaultConfig()
			cfg.Lattice = spec
			type job struct {
				i   int
				src string
			}
			jobs := make(chan job)
			var wg sync.WaitGroup
			workers := runtime.NumCPU()
			if workers < 2 {
				workers = 2
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range jobs {
						prog, err := parser.Parse(fmt.Sprintf("%s-%d.p4", spec, j.i), j.src)
						if err != nil {
							t.Errorf("program %d: parse: %v", j.i, err)
							continue
						}
						code, cerr := eval.Compile(prog)
						if cerr != nil {
							// The compiler must cover everything the
							// interpreter loads; a compile failure is only
							// acceptable when loading fails identically.
							if _, lerr := eval.New(prog, nil); lerr == nil {
								t.Errorf("program %d: compile failed on loadable program: %v\n%s", j.i, cerr, j.src)
							} else if errString(lerr) != errString(cerr) {
								t.Errorf("program %d: load/compile error mismatch: %q vs %q", j.i, lerr, cerr)
							}
							continue
						}
						if err := diffProgram(prog, code, 4, 2, int64(j.i)*7919+1); err != nil {
							t.Errorf("program %d: %v\n%s", j.i, err, j.src)
						}
					}
				}()
			}
			for i := 0; i < perLattice; i++ {
				jobs <- job{i, gen.Random(rng, cfg)}
			}
			close(jobs)
			wg.Wait()
		})
	}
}

func TestCompiledMatchesInterpCaseStudies(t *testing.T) {
	cases := append(progs.All(), progs.Stateful())
	for _, p := range cases {
		for _, variant := range []progs.Variant{progs.Buggy, progs.Fixed} {
			p, variant := p, variant
			t.Run(p.Name+"/"+variant.String(), func(t *testing.T) {
				t.Parallel()
				src := p.Source(variant)
				prog, err := parser.Parse(p.FileName(variant), src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				code, cerr := eval.Compile(prog)
				if cerr != nil {
					t.Fatalf("compile: %v", cerr)
				}
				// Multi-packet: register state must evolve identically.
				if err := diffProgram(prog, code, 6, 3, 0xCA5E); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCompiledSharedAcrossGoroutines runs several machines over one shared
// Compiled program concurrently; under -race this proves the compiled form
// is immutable in practice, not just by intent.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	p := progs.Stateful()
	prog, err := parser.Parse("stateful.p4", p.Source(progs.Fixed))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	code, cerr := eval.Compile(prog)
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := diffProgram(prog, code, 4, 3, int64(g)); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestCompiledMatchesInterpFieldPositions pins compiled field positions
// against the interpreter's lookup by name, case by case: every field
// access whose base type is known reads and writes by position, the rest
// scan by name, and both must give byte-identical outputs and errors.
func TestCompiledMatchesInterpFieldPositions(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string // substring of the error both engines must report
	}{
		{
			name: "nested-non-first-fields",
			src: `
header inner_t { <bit<8>, low> p; <bit<8>, low> q; <bit<8>, low> r; }
struct mid_t { inner_t a; inner_t b; }
struct headers { mid_t m; <bit<8>, low> z; }
control C(inout headers hdr) {
    apply {
        hdr.m.b.r = hdr.m.b.q + hdr.m.a.r;
        hdr.m.a.q = hdr.m.b.p;
        hdr.z = hdr.m.b.r + hdr.m.a.q;
    }
}`,
		},
		{
			name: "header-stack-indexed-then-projected",
			src: `
header pair_t { <bit<8>, low> a; <bit<8>, low> b; }
struct headers { pair_t ps[3]; <bit<2>, low> i; <bit<8>, low> z; }
control C(inout headers hdr) {
    apply {
        hdr.ps[1].b = hdr.ps[2].a + hdr.ps[0].b;
        hdr.ps[hdr.i].a = hdr.ps[1].b;
        hdr.z = hdr.ps[hdr.i].b + hdr.ps[2].b;
    }
}`,
		},
		{
			name: "whole-struct-assignment",
			src: `
struct pair_t { <bit<8>, low> a; <bit<8>, low> b; }
struct meta_t { pair_t p; pair_t q; <bit<8>, low> z; }
control C(inout meta_t m) {
    apply {
        m.q = m.p;
        m.q.a = m.q.b + 8w1;
        pair_t t = m.q;
        t.b = t.a;
        m.p = t;
        m.z = m.p.b + m.q.b;
    }
}`,
		},
		{
			name: "struct-out-inout-params",
			src: `
struct fwd_t { <bit<8>, low> x; <bit<8>, low> y; }
struct rev_t { <bit<8>, low> y; <bit<8>, low> x; }
struct meta_t { fwd_t f; rev_t r; }
control C(inout meta_t m) {
    action swap(inout fwd_t p, out rev_t q) {
        q.x = p.y;
        q.y = p.x + 8w1;
        p.y = q.y;
    }
    apply {
        swap(m.f, m.r);
        swap(m.f, m.r);
    }
}`,
		},
		{
			name: "local-shadows-param-with-other-type",
			src: `
struct fwd_t { <bit<8>, low> x; <bit<8>, low> y; }
struct rev_t { <bit<8>, low> y; <bit<8>, low> x; }
control C(inout fwd_t m, inout fwd_t o) {
    function <bit<8>, low> get(in rev_t m) {
        return m.x + m.y;
    }
    apply {
        o.y = m.y;
        {
            rev_t m = {y = o.x, x = 8w7};
            o.x = m.x;
            o.y = o.y + m.y;
            m.x = get(m);
            o.x = o.x + m.x;
        }
        o.x = o.x + m.x;
    }
}`,
		},
		{
			name: "member-of-call-result",
			src: `
struct pair_t { <bit<8>, low> a; <bit<8>, low> b; }
control C(inout pair_t m) {
    function pair_t mk(in <bit<8>, low> v) {
        return {a = v, b = v + 8w1};
    }
    apply {
        m.a = mk(m.b).b;
        m.b = mk(m.a).a + mk(8w3).b;
    }
}`,
		},
		{
			name: "mark-to-drop",
			src: `
struct meta_t { <bit<8>, low> z; standard_metadata_t sm; }
control C(inout meta_t m, inout standard_metadata_t standard_metadata) {
    apply {
        mark_to_drop(standard_metadata);
        mark_to_drop(m.sm);
        standard_metadata_t t = m.sm;
        t.priority = t.priority + 3w1;
        mark_to_drop(t);
        m.sm = t;
        m.z = 8w1;
    }
}`,
		},
		{
			name: "missing-field-read",
			src: `
struct pair_t { <bit<8>, low> a; <bit<8>, low> b; }
control C(inout pair_t m) {
    apply {
        m.a = m.b;
        m.b = m.c;
    }
}`,
			wantErr: `has no field "c"`,
		},
		{
			name: "missing-field-write",
			src: `
header h_t { <bit<8>, low> a; <bit<8>, low> b; }
struct headers { h_t h; }
control C(inout headers hdr) {
    apply {
        hdr.h.b = hdr.h.a;
        hdr.h.c = 8w1;
    }
}`,
			wantErr: `has no field "c"`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := parser.Parse(c.name+".p4", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			code, err := eval.Compile(prog)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := diffProgram(prog, code, 8, 2, 0xF1E1D); err != nil {
				t.Fatal(err)
			}
			in, err := eval.New(prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = in.RunControl("", nil)
			if got := errString(err); c.wantErr == "" && err != nil || !strings.Contains(got, c.wantErr) {
				t.Fatalf("interpreter error %q, want %q", got, c.wantErr)
			}
		})
	}
}

// TestRunControlRejectsReorderedInput: compiled field accesses index by
// position, so an input record or header whose fields are out of declared
// order must be refused on entry, naming the parameter, instead of being
// read at the wrong field. FieldOrderMismatch is the check; RunNamed here
// and the NI trial loop (TestFixInputsFieldOrder) apply it to map inputs.
func TestRunControlRejectsReorderedInput(t *testing.T) {
	prog, err := parser.Parse("reorder.p4", `
header h_t { <bit<8>, low> a; <bit<8>, low> b; }
struct headers { h_t h; <bit<8>, low> z; }
control C(inout headers hdr, inout <bit<8>, low> n) {
    apply {
        hdr.z = hdr.h.b;
        n = hdr.h.a;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := eval.NewMachine(code, nil)
	hdr := func(first, second string) eval.Value {
		return &eval.RecordVal{Fields: []eval.NamedValue{
			{Name: "h", Val: &eval.HeaderVal{Valid: true, Fields: []eval.NamedValue{
				{Name: first, Val: eval.NewBit(8, 1)},
				{Name: second, Val: eval.NewBit(8, 2)},
			}}},
			{Name: "z", Val: eval.NewBit(8, 0)},
		}}
	}
	out, _, err := eval.RunNamed(m, "", map[string]eval.Value{"hdr": hdr("a", "b")})
	if err != nil {
		t.Fatalf("declared order: %v", err)
	}
	if got := out["n"]; !eval.ValueEqual(got, eval.NewBit(8, 1)) {
		t.Errorf("n = %s, want 8w1", got)
	}
	_, _, err = eval.RunNamed(m, "", map[string]eval.Value{"hdr": hdr("b", "a")})
	want := `eval: input hdr.h: field 0 is "b", declared "a"`
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("reordered input: error %v, want prefix %q", err, want)
	}
}
