package ni_test

// Engine parity: one trial loop drives both engines, so an Experiment run
// with Interp (tree-walker) and one run with the compiled engine must
// report byte-identical results — the same violations in the same trials
// with the same rendered witnesses, the same executed-trial counts, and
// the same errors. Both must also agree with ReferenceRunN, the map-shaped
// loop the trial loop replaced, which draws with the generic type walks,
// runs a fresh interpreter per run and compares by name. The fuzz corpus
// classifies and dedups findings by these strings, so parity here is what
// keeps recorded campaigns valid.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

func runBoth(t *testing.T, mk func(interp bool) *ni.Experiment, trials int, seed int64) {
	t.Helper()
	type result struct {
		name string
		vio  []ni.Violation
		ran  int
		err  error
	}
	ref := result{name: "reference"}
	ref.vio, ref.ran, ref.err = ni.ReferenceRunN(mk(true), trials, seed)
	interp := result{name: "interp"}
	interp.vio, interp.ran, interp.err = mk(true).RunN(trials, seed)
	compiled := result{name: "compiled"}
	compiled.vio, compiled.ran, compiled.err = mk(false).RunN(trials, seed)
	for _, got := range []result{interp, compiled} {
		if got.ran != ref.ran {
			t.Fatalf("trial counts differ: %s %d, %s %d", ref.name, ref.ran, got.name, got.ran)
		}
		if es, ws := fmt.Sprint(got.err), fmt.Sprint(ref.err); es != ws {
			t.Fatalf("errors differ:\n  %s: %s\n  %s: %s", ref.name, ws, got.name, es)
		}
		if len(got.vio) != len(ref.vio) {
			t.Fatalf("violation counts differ: %s %d, %s %d", ref.name, len(ref.vio), got.name, len(got.vio))
		}
		for i := range ref.vio {
			if got.vio[i].String() != ref.vio[i].String() {
				t.Fatalf("violation %d differs:\n  %s: %s\n  %s: %s", i, ref.name, ref.vio[i], got.name, got.vio[i])
			}
		}
	}
}

func TestEnginesAgreeOnGeneratedPrograms(t *testing.T) {
	for _, spec := range []string{"two-point", "chain:4", "nparty:3", "diamond", "powerset:2"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			lat, err := lattice.ByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			cfg := gen.DefaultConfig()
			cfg.Lattice = spec
			for i := 0; i < 40; i++ {
				src := gen.Random(rng, cfg)
				prog, err := parser.Parse(fmt.Sprintf("p%d.p4", i), src)
				if err != nil {
					t.Fatalf("program %d: parse: %v", i, err)
				}
				for _, obs := range lat.Elements() {
					if obs == lat.Top() {
						continue
					}
					obs := obs
					mk := func(interp bool) *ni.Experiment {
						return &ni.Experiment{Prog: prog, Lat: lat, Observer: obs, Interp: interp}
					}
					runBoth(t, mk, 8, int64(i)*31+7)
				}
			}
		})
	}
}

func TestEnginesAgreeOnStatefulMultiPacket(t *testing.T) {
	p := progs.Stateful()
	for _, variant := range []progs.Variant{progs.Buggy, progs.Fixed} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			prog, err := parser.Parse(p.FileName(variant), p.Source(variant))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			mk := func(interp bool) *ni.Experiment {
				return &ni.Experiment{Prog: prog, Lat: p.Lattice(), Packets: 3, Interp: interp}
			}
			runBoth(t, mk, 40, 5)
		})
	}
}

// TestEnginesAgreeWithFixInputs runs the case-study matrix — every case
// study, buggy and fixed, every control, every observer, one packet and
// three — with the populated control planes and input-steering hooks the
// case-study tests use, so FixInputs edits reach all three loops.
func TestEnginesAgreeWithFixInputs(t *testing.T) {
	experiments := 0
	for _, p := range progs.All() {
		lat := p.Lattice()
		for _, variant := range []progs.Variant{progs.Buggy, progs.Fixed} {
			prog := parser.MustParse(p.FileName(variant), p.Source(variant))
			for _, ctrl := range prog.Controls {
				for _, obs := range lat.Elements() {
					for _, packets := range []int{1, 3} {
						name := fmt.Sprintf("%s/%s/%s/%s/%d", p.Name, variant, ctrl.Name, obs, packets)
						mk := func(interp bool) *ni.Experiment {
							return &ni.Experiment{Prog: prog, Lat: lat, Control: ctrl.Name, Observer: obs,
								CP: caseStudyCP(t, p.Name), FixInputs: caseStudyFix(p.Name), Packets: packets, Interp: interp}
						}
						t.Run(name, func(t *testing.T) { runBoth(t, mk, 30, 11) })
						experiments++
					}
				}
			}
		}
	}
	t.Logf("%d experiments agree", experiments)
}

// TestSameSeedSameResults is the determinism contract the benchmark gate
// leans on: two runs of the same experiment with the same seed yield
// identical trial counts and witness tallies.
func TestSameSeedSameResults(t *testing.T) {
	p := progs.Topology()
	prog, err := parser.Parse(p.FileName(progs.Buggy), p.Source(progs.Buggy))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e1 := &ni.Experiment{Prog: prog, Lat: p.Lattice()}
	e2 := &ni.Experiment{Prog: prog, Lat: p.Lattice()}
	v1, r1, err1 := e1.RunAdaptive(8, 256, 99)
	v2, r2, err2 := e2.RunAdaptive(8, 256, 99)
	if r1 != r2 || len(v1) != len(v2) || fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("same-seed runs diverged: (%d,%d,%v) vs (%d,%d,%v)", r1, len(v1), err1, r2, len(v2), err2)
	}
	for i := range v1 {
		if v1[i].String() != v2[i].String() {
			t.Fatalf("witness %d differs: %s vs %s", i, v1[i], v2[i])
		}
	}
}
