// Oracle is the abstraction over the repo's non-interference backends.
// The Experiment holds the program, lattice, observer, and engine state;
// an Oracle decides how to spend effort over it — a flat randomized
// budget, an adaptive escalating budget, or (internal/exhaust) full
// enumeration of the secret input space. The pipeline selects one per
// job via pipeline.Budget.Oracle; everything downstream consumes the uniform
// Result, so the campaign stack is oracle-agnostic.
package ni

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/types"
)

// Outcome is the epistemic strength of an oracle's verdict: what a
// clean (or violated) run actually asserts about the program.
type Outcome int

// Outcomes.
const (
	// Sampled is randomized testing's ceiling: violations are real
	// witnesses, but their absence is evidence, not proof.
	Sampled Outcome = iota
	// ProvedSecure asserts the oracle enumerated every secret
	// assignment at every public input state it visited and found no
	// violation. How strong that is depends on Result.Total: with Total
	// set the whole public × secret space was covered and the program
	// is non-interfering, full stop; without it the public side was
	// only sampled (probe mode), so the verdict certifies that no
	// secret influences the observables at the probed public states —
	// a leak manifesting only at an unvisited public state is not
	// excluded. Consumers that need a proof over the whole input space
	// must check Total, not just this outcome.
	ProvedSecure
	// ProvedInsecure asserts a violation was found by enumeration; the
	// witness is a constructive proof of interference.
	ProvedInsecure
	// Inconclusive means exhaustive enumeration was not possible
	// (width budget exceeded, int-typed inputs, multi-packet
	// adversary, ...); Result.Reason says why. Violations may still be
	// present from the sampling fallback.
	Inconclusive
)

// String renders the outcome in the spelling corpus metadata and event
// streams use.
func (o Outcome) String() string {
	switch o {
	case Sampled:
		return "sampled"
	case ProvedSecure:
		return "proved-secure"
	case ProvedInsecure:
		return "proved-insecure"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result is one oracle check at one observer.
type Result struct {
	// Violations holds the interference witnesses found (nil for a
	// clean check).
	Violations []Violation
	// Trials is the number of program-pair runs (randomized) or
	// enumerated assignment runs (exhaustive) actually executed.
	Trials int
	// Assignments counts input assignments enumerated — zero for the
	// randomized backends.
	Assignments uint64
	// Total reports that the enumeration covered the full public ×
	// secret input space (the strongest proof mode), not just all
	// secrets per sampled public probe.
	Total bool
	// Outcome is the verdict's epistemic strength; Reason explains an
	// Inconclusive one.
	Outcome Outcome
	Reason  string
}

// Oracle is one NI backend.
type Oracle interface {
	// Name is the backend's stable name ("randomized", "adaptive",
	// "exhaustive") — recorded in corpus metadata so replay re-checks
	// under the same oracle.
	Name() string
	// Check runs the backend over e with the given seed.
	Check(e *Experiment, seed int64) (Result, error)
}

// Randomized is the flat-budget randomized backend: Trials trials, every
// violation a sampled witness.
type Randomized struct{ Trials int }

// Name implements Oracle.
func (o Randomized) Name() string { return "randomized" }

// Check implements Oracle; it is RunN behind the uniform Result.
func (o Randomized) Check(e *Experiment, seed int64) (Result, error) {
	vio, ran, err := e.RunN(o.Trials, seed)
	return Result{Violations: vio, Trials: ran, Outcome: Sampled}, err
}

// Adaptive is the escalating randomized backend: Min trials first, then
// doubling rounds up to Max total, stopping at the first witness.
type Adaptive struct{ Min, Max int }

// Name implements Oracle.
func (o Adaptive) Name() string { return "adaptive" }

// Check implements Oracle; it is RunAdaptive behind the uniform Result.
func (o Adaptive) Check(e *Experiment, seed int64) (Result, error) {
	vio, ran, err := e.RunAdaptive(o.Min, o.Max, seed)
	return Result{Violations: vio, Trials: ran, Outcome: Sampled}, err
}

// ControlParams resolves the experiment's control block and its
// parameters' security types — the input surface an alternate oracle
// enumerates over. Both come from the experiment's trial plan, built on
// first use; the map is the plan's, so callers must not modify it.
// Exported for internal/exhaust.
func (e *Experiment) ControlParams() (*ast.ControlDecl, map[string]types.SecType, error) {
	p, err := e.trialPlan()
	if err != nil {
		return nil, nil, err
	}
	return p.ctrl, p.byName, nil
}

// Comparators returns the trial plan's observable-output comparators at
// the experiment's observer, one per control parameter in declaration
// order (the order Machine.RunIndexed takes arguments in). The slice is
// the plan's; callers must not modify it. Exported for internal/exhaust.
func (e *Experiment) Comparators() ([]Comparator, error) {
	p, err := e.trialPlan()
	if err != nil {
		return nil, err
	}
	return p.diffs, nil
}

// Engine returns the experiment's compiled program, compiling lazily
// like RunN does; nil means only the tree-walking interpreter is
// available (Interp set, or compilation failed).
func (e *Experiment) Engine() *eval.Compiled { return e.engine() }

// Machines exposes the experiment's pooled machine pair, rebound to a
// fresh clone of its control plane — so an alternate oracle enumerating
// over the same compiled program reuses the frames and table state the
// randomized trials already allocated.
func (e *Experiment) Machines(code *eval.Compiled) (*eval.Machine, *eval.Machine) {
	return e.machines(code)
}

// Rand returns the experiment's one generator reseeded to seed, drawing
// exactly what rand.New(rand.NewSource(seed)) draws, so no round or probe
// sweep allocates a generator.
func (e *Experiment) Rand(seed int64) *eval.BatchRand {
	if e.rng == nil {
		e.rng = new(eval.BatchRand)
	}
	e.rng.Seed(seed)
	return e.rng
}
