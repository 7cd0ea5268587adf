package ni_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// Workload of the engine gate: per lattice, 8 generated programs the IFC
// checker accepts (a flat budget of 1024 trials each) and 8 it rejects
// (adaptive, 1024 trials escalating to 4096), all seeded from 1.
const (
	gateSeed      = 1
	gatePrograms  = 8
	gateTrials    = 1024
	gateTrialsMax = 4096
	// gateFloor is the share of a recorded compiled-over-interpreter
	// speedup a run must keep.
	gateFloor = 0.7
)

// TestNIGate runs the fixed NI workload on the tree-walking
// interpreter and on the compiled engine, one core each. Every
// program's trials are seeded at build time, so the trial and witness
// tallies are a pure function of the workload: in the tallies subtest
// both engines must reach exactly the recorded ones, and a drift means
// the workload, the sampler or an engine changed. The speedup subtest
// compares the engines with each other on the same machine, a ratio
// that transfers across machines where trials/sec does not: each
// (lattice, mix) speedup and their geomean must stay at least gateFloor
// of the recorded value. It reuses the tallies subtest's passes and
// runs the compiled side twice more, taking the fastest of three, so
// that a scheduler hiccup in its short run is not read as a regression.
func TestNIGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts the engines' speed ratio")
	}
	lattices := []struct {
		spec           string
		accept, reject gateCell
	}{
		{"two-point", gateCell{8192, 0, 9.24}, gateCell{20480, 2843, 7.77}},
		{"chain:4", gateCell{8192, 0, 9.03}, gateCell{26624, 1410, 8.89}},
		{"nparty:3", gateCell{8192, 0, 6.98}, gateCell{26624, 1029, 8.03}},
	}
	const recordedGeomean = 8.28
	type cell struct {
		name string
		w    *gateWorkload
		want gateCell
	}
	var cells []cell
	for li, l := range lattices {
		accept, reject := buildGateWorkloads(t, l.spec, int64(li))
		cells = append(cells,
			cell{l.spec + "/" + accept.mix, accept, l.accept},
			cell{l.spec + "/" + reject.mix, reject, l.reject})
	}
	interp := make([]time.Duration, len(cells))
	compiled := make([]time.Duration, len(cells))
	if !t.Run("tallies", func(t *testing.T) {
		for i, c := range cells {
			interp[i] = c.w.run(t, c.name, true, c.want)
			compiled[i] = c.w.run(t, c.name, false, c.want)
		}
	}) {
		return
	}
	t.Run("speedup", func(t *testing.T) {
		logSum := 0.0
		for i, c := range cells {
			for range 2 {
				compiled[i] = min(compiled[i], c.w.run(t, c.name, false, c.want))
			}
			speedup := interp[i].Seconds() / compiled[i].Seconds()
			t.Logf("%-16s interp %v, compiled %v: %.2fx (recorded %.2fx)", c.name, interp[i], compiled[i], speedup, c.want.speedup)
			if speedup < gateFloor*c.want.speedup {
				t.Errorf("%s: compiled speedup %.2fx is below %.0f%% of the recorded %.2fx", c.name, speedup, 100*gateFloor, c.want.speedup)
			}
			logSum += math.Log(speedup)
		}
		geomean := math.Exp(logSum / float64(len(cells)))
		t.Logf("geomean speedup %.2fx (recorded %.2fx)", geomean, recordedGeomean)
		if geomean < gateFloor*recordedGeomean {
			t.Errorf("geomean compiled speedup %.2fx is below %.0f%% of the recorded %.2fx", geomean, 100*gateFloor, recordedGeomean)
		}
	})
}

// gateCell is one (lattice, mix) cell's recorded tallies and
// compiled-over-interpreter speedup.
type gateCell struct {
	trials, witnesses int
	speedup           float64
}

// gateWorkload is one (lattice, mix) cell's programs, parsed and
// compiled outside the timed region, as a campaign compiles once per job.
type gateWorkload struct {
	mix      string
	lat      lattice.Lattice
	progs    []*ast.Program
	codes    []*eval.Compiled
	seeds    []int64
	adaptive bool
}

// buildGateWorkloads generates programs for one lattice until both mixes
// are full. Each candidate is probed with one interpreter trial under a
// separate seed, so a program that fails at run time never enters the
// timed workload.
func buildGateWorkloads(t *testing.T, spec string, latIdx int64) (accept, reject *gateWorkload) {
	t.Helper()
	lat, err := lattice.ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Lattice = spec
	rng := rand.New(rand.NewSource(gateSeed + latIdx*100003))
	accept = &gateWorkload{mix: "accept", lat: lat}
	reject = &gateWorkload{mix: "reject", lat: lat, adaptive: true}
	for attempts := 1; len(accept.progs) < gatePrograms || len(reject.progs) < gatePrograms; attempts++ {
		if attempts > 400*gatePrograms {
			t.Fatalf("%s: %d accept and %d reject programs after %d attempts", spec, len(accept.progs), len(reject.progs), attempts)
		}
		prog, err := parser.Parse(fmt.Sprintf("%s-%d.p4", spec, attempts), gen.Random(rng, cfg))
		if err != nil || !basecheck.Check(prog).OK {
			continue
		}
		w := accept
		if !core.Check(prog, lat).OK {
			w = reject
		}
		if len(w.progs) >= gatePrograms {
			continue
		}
		probe := &ni.Experiment{Prog: prog, Lat: lat, Interp: true}
		if _, _, err := probe.RunN(1, gateSeed^0x50be); err != nil {
			continue
		}
		code, err := eval.Compile(prog)
		if err != nil {
			continue
		}
		w.seeds = append(w.seeds, gateSeed+latIdx*7919+int64(len(w.progs))*104729)
		w.progs = append(w.progs, prog)
		w.codes = append(w.codes, code)
	}
	return accept, reject
}

// run runs every program's trial budget on one engine, checks the
// tallies against want, and returns the time taken.
func (w *gateWorkload) run(t *testing.T, name string, interp bool, want gateCell) time.Duration {
	t.Helper()
	var trials, witnesses int
	start := time.Now()
	for i, prog := range w.progs {
		e := &ni.Experiment{Prog: prog, Lat: w.lat, Interp: interp}
		if !interp {
			e.Code = w.codes[i]
		}
		var vio []ni.Violation
		var ran int
		var err error
		if w.adaptive {
			vio, ran, err = e.RunAdaptive(gateTrials, gateTrialsMax, w.seeds[i])
		} else {
			vio, ran, err = e.RunN(gateTrials, w.seeds[i])
		}
		if err != nil {
			t.Fatalf("%s program %d (interp=%v): %v", name, i, interp, err)
		}
		trials += ran
		witnesses += len(vio)
	}
	elapsed := time.Since(start)
	if trials != want.trials || witnesses != want.witnesses {
		t.Errorf("%s (interp=%v): %d trials, %d witnesses; recorded %d, %d",
			name, interp, trials, witnesses, want.trials, want.witnesses)
	}
	return elapsed
}
