package ni_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/controlplane"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/progs"
)

// TestTrialAllocs pins the compiled engine's trial allocations with no
// FixInputs: the draws of both runs and whatever the program constructs,
// nothing for the trial loop itself. Each control of each fixed case
// study runs against its populated control plane; the count is what 64
// trials allocate beyond the first, so per-round setup cancels out. The
// ceilings are the counts of the separate compiled fast path the single
// trial loop replaced; a loop that taxes every trial (a map, a closure,
// a copy) shows up here.
func TestTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ceilings := map[string]float64{
		"D2R/D2R_Ingress":            4644,
		"App/App_Ingress":            861,
		"Lattice/Alice_Ingress":      928,
		"Lattice/Bob_Ingress":        928,
		"Topology/Obfuscate_Ingress": 1567,
		"Cache/Cache_Ingress":        414,
		"NetChain/NetChain_Ingress":  350,
		"Stateful/Stateful_Ingress":  677,
	}
	checked := 0
	for _, p := range progs.All() {
		prog := parser.MustParse(p.FileName(progs.Fixed), p.Source(progs.Fixed))
		for _, ctrl := range prog.Controls {
			key := p.Name + "/" + ctrl.Name
			ceiling, ok := ceilings[key]
			if !ok {
				t.Fatalf("%s: no recorded ceiling", key)
			}
			e := &ni.Experiment{Prog: prog, Lat: p.Lattice(), Control: ctrl.Name, CP: caseStudyCP(t, p.Name)}
			if e.Engine() == nil {
				t.Fatalf("%s: program did not compile", key)
			}
			// The least of three measurements: a stray allocation outside
			// the trials (about one run in a hundred shows one) only adds.
			run := func(n int) float64 {
				least := math.Inf(1)
				for range 3 {
					least = min(least, testing.AllocsPerRun(5, func() {
						if _, err := e.Run(n, 13); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			if extra := run(65) - run(1); extra > ceiling {
				t.Errorf("%s: 64 trials allocate %v, ceiling %v", key, extra, ceiling)
			}
			checked++
		}
	}
	if checked != len(ceilings) {
		t.Fatalf("checked %d controls, %d ceilings recorded", checked, len(ceilings))
	}
}

// TestRoundSetupAllocs pins the trial plan cache. Once an Experiment has
// run a round, a later round's setup — everything RunN allocates besides
// its trials, measured as a round of zero trials — must cost no more than
// drawing one trial's inputs from scratch. Rebuilding the plan each round
// (resolving the parameter types, compiling a sampler and a comparator
// per parameter) costs more. Checked on every control of every case
// study, buggy and fixed, with no control plane (a campaign's setting)
// and with the case study's own. With no control plane, nothing can
// change between rounds, so a program that declares tables must cost no
// more than one that declares none.
func TestRoundSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// The nil-CP setups, split by whether the program declares tables.
	var tableFree, tableDeclaring = math.Inf(-1), map[string]float64{}
	for _, p := range progs.All() {
		for _, v := range []progs.Variant{progs.Buggy, progs.Fixed} {
			prog := parser.MustParse(p.FileName(v), p.Source(v))
			for _, ctrl := range prog.Controls {
				for _, cp := range []*controlplane.ControlPlane{nil, caseStudyCP(t, p.Name)} {
					key := fmt.Sprintf("%s/%s (control plane: %v)", p.FileName(v), ctrl.Name, cp != nil)
					e := &ni.Experiment{Prog: prog, Lat: p.Lattice(), Control: ctrl.Name, CP: cp}
					if _, err := e.Run(1, 13); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					setup := math.Inf(1)
					for range 3 {
						setup = min(setup, testing.AllocsPerRun(5, func() {
							if _, err := e.Run(0, 13); err != nil {
								t.Fatal(err)
							}
						}))
					}
					draws, err := ni.DrawAllocs(e)
					if err != nil {
						t.Fatal(err)
					}
					if setup > draws {
						t.Errorf("%s: a warm round's setup allocates %v, one trial's fresh draws %v", key, setup, draws)
					}
					switch {
					case cp != nil:
					case declaresTables(prog):
						tableDeclaring[key] = setup
					default:
						tableFree = max(tableFree, setup)
					}
				}
			}
		}
	}
	if len(tableDeclaring) == 0 || math.IsInf(tableFree, -1) {
		t.Fatalf("need case studies with and without tables, got %d and %v", len(tableDeclaring), tableFree)
	}
	for key, setup := range tableDeclaring {
		if setup > tableFree {
			t.Errorf("%s: a warm round's setup allocates %v, a table-free program's at most %v", key, setup, tableFree)
		}
	}
}

// declaresTables reports whether any control of prog declares a table.
func declaresTables(prog *ast.Program) bool {
	for _, c := range prog.Controls {
		for _, d := range c.Locals {
			if _, ok := d.(*ast.TableDecl); ok {
				return true
			}
		}
	}
	return false
}
