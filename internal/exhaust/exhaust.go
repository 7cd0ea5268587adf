// Package exhaust is the exhaustive non-interference oracle: the third
// NI backend behind the ni.Oracle interface, alongside the randomized
// and adaptive samplers.
//
// Where the randomized backends draw below-observer-equivalent input
// pairs, this one enumerates. For a fixed public (observable) input
// state, non-interference at observer l demands that every secret
// assignment produce identical observable outputs — so the oracle walks
// the whole secret space with an odometer over the control's
// secret-labeled scalar leaves, runs the compiled engine once per
// assignment, and compares each run's observable outputs against the
// first assignment's. Any mismatch is a constructive proof of
// interference (ProvedInsecure); covering the entire public × secret
// space with no mismatch is a proof of security (ProvedSecure).
//
// Enumeration is bounded by a run budget:
//
//   - total mode: |public| × |secret| ≤ Budget — the full input space is
//     enumerated; a clean sweep proves security over the whole space
//     (Result.Total set).
//   - probe mode: |secret| ≤ Budget but the public side is too wide
//     (every generated control carries 47 bits of low-labeled
//     standard_metadata alone) — every secret assignment is enumerated
//     at each randomly drawn public probe. ProvedSecure then asserts
//     only that no secret can influence the observables at the tested
//     public states (Result.Total stays false — a leak reachable only
//     at an unvisited public state is not excluded); ProvedInsecure
//     witnesses remain outright proofs. Downstream classification keys
//     on Total: only total-mode clean sweeps certify imprecision.
//   - ineligible: the secret space itself exceeds the budget, a secret
//     is int-typed (unbounded), or the experiment shape rules out
//     positional enumeration — Inconclusive, optionally delegating to a
//     sampling Fallback so witnesses can still be found.
package exhaust

import (
	"time"

	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/ni"
)

// DefaultBudget bounds machine runs per observer check when
// Oracle.Budget is zero. 2^16 keeps a campaign job under ~a tenth of a
// second; raise it (ISSUE 10 suggests up to 2^24) for proof-grade
// sweeps of a regression corpus.
const DefaultBudget = 1 << 16

// maxDerivedProbes caps the public probes derived from leftover budget
// in probe mode when Oracle.Probes is zero.
const maxDerivedProbes = 16

// Inconclusive reasons (ni.Result.Reason).
const (
	// ReasonSecretBudget: the secret space alone exceeds the run budget.
	ReasonSecretBudget = "width-budget-exceeded"
	// ReasonIntTyped: an int-typed secret input has no finite domain.
	ReasonIntTyped = "int-typed-secret"
	// ReasonOpaque: a parameter type has no enumerable value domain.
	ReasonOpaque = "opaque-typed-input"
	// ReasonMultiPacket: the multi-packet adversary needs sequence
	// enumeration, which the oracle does not attempt.
	ReasonMultiPacket = "multi-packet"
	// ReasonFixedInputs: FixInputs edits each randomized trial's drawn
	// inputs, and the enumerator does not apply it per assignment, so a
	// sweep would cover inputs the experiment excludes.
	ReasonFixedInputs = "fixed-inputs"
	// ReasonNoCompile: the program only runs on the tree-walking
	// interpreter; enumeration requires the compiled engine.
	ReasonNoCompile = "compile-failed"
	// ReasonRunError: a machine run failed mid-sweep, so the sweep is
	// partial — whatever it covered proves nothing either way.
	ReasonRunError = "machine-run-error"
	// ReasonControlPlane: a clean sweep applied a table with no installed
	// entries. It covered one control plane, the empty one, while
	// non-interference quantifies over every configuration of the tables
	// (Definition C.8), so it proves nothing about the others. A witness
	// still proves interference: the empty control plane is a legal one.
	ReasonControlPlane = "control-plane"
)

// Oracle is the exhaustive backend. The zero value enumerates with
// DefaultBudget and no fallback.
type Oracle struct {
	// Budget is the maximum machine runs one Check may spend
	// (0 = DefaultBudget). Eligibility and total-vs-probe mode are
	// decided against it before any run happens.
	Budget uint64
	// Probes fixes the number of public probes in probe mode
	// (0 = derived from the budget left after the secret space, capped
	// at 16).
	Probes int
	// Fallback, when non-nil, is consulted for experiments the
	// enumerator cannot touch at all (ineligible shapes, secret space
	// over budget) so sampled witnesses are still found; the combined
	// result keeps Outcome Inconclusive and the enumerator's Reason.
	Fallback ni.Oracle
}

// Name implements ni.Oracle.
func (o Oracle) Name() string { return "exhaustive" }

// Check implements ni.Oracle.
func (o Oracle) Check(e *ni.Experiment, seed int64) (ni.Result, error) {
	budget := o.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	start := time.Now()
	res, ran, err := o.enumerate(e, seed, budget)
	reg := e.Metrics
	reg.Histogram("exhaust_enumeration_seconds", metrics.DurationBuckets).Observe(time.Since(start).Seconds())
	reg.Counter("exhaust_assignments_total").Add(int64(res.Assignments))
	switch res.Outcome {
	case ni.ProvedSecure:
		reg.Counter("exhaust_proofs_total", "verdict", "secure").Inc()
	case ni.ProvedInsecure:
		reg.Counter("exhaust_proofs_total", "verdict", "insecure").Inc()
	case ni.Inconclusive:
		reg.Counter("exhaust_inconclusive_total", "reason", res.Reason).Inc()
	}
	if err != nil {
		return res, err
	}
	if !ran && o.Fallback != nil {
		// Nothing was enumerated; sample instead, but the verdict's
		// strength stays Inconclusive with the enumerator's reason.
		fres, ferr := o.Fallback.Check(e, seed)
		fres.Outcome = ni.Inconclusive
		fres.Reason = res.Reason
		return fres, ferr
	}
	return res, nil
}

// enumerate plans and runs the sweep; ran reports whether any
// enumeration happened (false for ineligible experiments, which makes
// the fallback worthwhile).
func (o Oracle) enumerate(e *ni.Experiment, seed int64, budget uint64) (ni.Result, bool, error) {
	inconclusive := func(reason string) (ni.Result, bool, error) {
		return ni.Result{Outcome: ni.Inconclusive, Reason: reason}, false, nil
	}
	if e.Packets > 1 {
		return inconclusive(ReasonMultiPacket)
	}
	if e.FixInputs != nil {
		return inconclusive(ReasonFixedInputs)
	}
	code := e.Engine()
	if code == nil {
		return inconclusive(ReasonNoCompile)
	}
	_, pts, err := e.ControlParams()
	if err != nil {
		return ni.Result{}, false, err
	}
	diffs, err := e.Comparators()
	if err != nil {
		return ni.Result{}, false, err
	}
	idx := code.ControlIndex(e.Control)
	if idx < 0 {
		return inconclusive(ReasonNoCompile)
	}
	names := code.ParamNames(idx)
	obs := e.Observer
	if obs.IsZero() {
		obs = e.Lat.Bottom()
	}

	p := &plan{lat: e.Lat, obs: obs, args: make([]eval.Value, len(names))}
	for i, n := range names {
		if reason := p.walk(pts[n], &p.args[i]); reason != "" {
			return inconclusive(reason)
		}
	}
	secretCount, pubCount := uint64(1), uint64(1)
	for i, lf := range p.leaves {
		switch {
		case lf.radix == 0: // public int: no finite domain, drawn per probe
			p.intLeaves = append(p.intLeaves, i)
			pubCount = satInf
		case lf.secret:
			p.secretIdx = append(p.secretIdx, i)
			secretCount = satMul(secretCount, lf.radix)
		default:
			p.publicIdx = append(p.publicIdx, i)
			pubCount = satMul(pubCount, lf.radix)
		}
	}
	if secretCount > budget {
		return inconclusive(ReasonSecretBudget)
	}

	m, _ := e.Machines(code)
	sweep := &sweeper{plan: p, m: m, idx: idx, names: names, diffs: diffs,
		base: make([]eval.Value, len(names)), emptyApplies: m.EmptyTableApplies()}

	if satMul(secretCount, pubCount) <= budget {
		// Total mode: enumerate the whole public × secret space.
		pub := newOdometer(p, p.publicIdx)
		sec := newOdometer(p, p.secretIdx)
		for {
			vio, err := sweep.secrets(sec)
			if err != nil || vio != nil {
				return sweep.result(vio, true, err), true, err
			}
			if !pub.advance(p) {
				break
			}
		}
		return sweep.result(nil, true, nil), true, nil
	}

	// Probe mode: all secrets per randomly drawn public probe.
	probes := o.Probes
	if probes <= 0 {
		probes = maxDerivedProbes
	}
	if secretCount > 0 {
		if max := int(budget / secretCount); probes > max {
			probes = max
		}
	}
	if probes < 1 {
		probes = 1
	}
	rng := e.Rand(seed)
	sec := newOdometer(p, p.secretIdx)
	for pr := 0; pr < probes; pr++ {
		for _, li := range p.publicIdx {
			p.vals[li] = eval.RandomFrom(p.leaves[li].t, rng)
		}
		for _, lf := range p.intLeaves {
			p.vals[lf] = eval.RandomFrom(p.leaves[lf].t, rng)
		}
		sec.reset(p)
		vio, err := sweep.secrets(sec)
		if err != nil || vio != nil {
			return sweep.result(vio, false, err), true, err
		}
	}
	return sweep.result(nil, false, nil), true, nil
}

// sweeper runs one enumerated assignment at a time and compares outputs
// against the current public state's baseline. Everything it touches per
// assignment — the argument trees and their slot list, the compiled
// per-parameter comparators, the baseline snapshot — is built once per
// sweep.
type sweeper struct {
	plan  *plan
	m     *eval.Machine
	idx   int
	names []string
	diffs []ni.Comparator

	runs    uint64
	base    []eval.Value
	baseSig eval.Signal
	// emptyApplies is the machine's EmptyTableApplies count before the
	// sweep's first run; emptyTable records, at the end of each clean
	// secret sweep, whether a run has applied a table with no entries
	// since.
	emptyApplies uint64
	emptyTable   bool
}

// secrets enumerates the secret odometer for the current public state.
// The first assignment establishes the baseline observable outputs; any
// later assignment differing in an observable leaf (or signal form) is a
// violation.
func (s *sweeper) secrets(sec *odometer) (*ni.Violation, error) {
	p := s.plan
	first := true
	for {
		p.restore()
		s.m.Reset()
		outs, sig, err := s.m.RunIndexed(s.idx, p.args)
		s.runs++
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			for i, v := range outs {
				s.base[i] = snapshot(s.base[i], v)
			}
			s.baseSig = sig
		} else {
			if sig.Kind != s.baseSig.Kind {
				return &ni.Violation{Trial: int(s.runs), Where: "signal",
					A: s.baseSig.String(), B: sig.String()}, nil
			}
			for i, v := range outs {
				if d, ok := s.diffs[i].Diff(s.base[i], v); !ok {
					vio := d // escapes only here, not on every comparison
					vio.Where = s.names[i] + vio.Where
					vio.Trial = int(s.runs)
					return &vio, nil
				}
			}
		}
		if !sec.advance(p) {
			s.emptyTable = s.m.EmptyTableApplies() > s.emptyApplies
			return nil, nil
		}
	}
}

// snapshot deep-copies src like eval.Copy, but into dst's containers
// wherever their kind and length match src's. The baseline is retaken at
// every public state — in total mode every |secret| assignments — and
// this way allocates only where the program changed an output's shape.
// dst is always a previous snapshot, never aliased by src.
func snapshot(dst, src eval.Value) eval.Value {
	switch sv := src.(type) {
	case *eval.RecordVal:
		if dv, ok := dst.(*eval.RecordVal); ok && snapshotFields(dv.Fields, sv.Fields) {
			return dv
		}
	case *eval.HeaderVal:
		if dv, ok := dst.(*eval.HeaderVal); ok && snapshotFields(dv.Fields, sv.Fields) {
			dv.Valid = sv.Valid
			return dv
		}
	case *eval.StackVal:
		if dv, ok := dst.(*eval.StackVal); ok && len(dv.Elems) == len(sv.Elems) {
			for i, e := range sv.Elems {
				dv.Elems[i] = snapshot(dv.Elems[i], e)
			}
			return dv
		}
	}
	return eval.Copy(src)
}

// snapshotFields snapshots src's fields into dst when both have the same
// length; false leaves dst untouched.
func snapshotFields(dst, src []eval.NamedValue) bool {
	if len(dst) != len(src) {
		return false
	}
	for i := range src {
		dst[i] = eval.NamedValue{Name: src[i].Name, Val: snapshot(dst[i].Val, src[i].Val)}
	}
	return true
}

// result assembles the uniform ni.Result for a finished,
// witness-interrupted, or error-interrupted sweep. An error means the
// sweep is partial, and a partial clean sweep proves nothing — the
// outcome degrades to Inconclusive so no caller can mistake it for a
// certificate. So does a clean sweep whose runs applied a table with no
// entries (ReasonControlPlane). (A witness and an error never arrive
// together: secrets stops at whichever comes first.)
func (s *sweeper) result(vio *ni.Violation, total bool, err error) ni.Result {
	r := ni.Result{
		Trials:      int(s.runs),
		Assignments: s.runs,
		Total:       total,
		Outcome:     ni.ProvedSecure,
	}
	switch {
	case vio != nil:
		r.Violations = []ni.Violation{*vio}
		r.Outcome = ni.ProvedInsecure
	case err != nil:
		r.Outcome = ni.Inconclusive
		r.Reason = ReasonRunError
		r.Total = false
	case s.emptyTable:
		r.Outcome = ni.Inconclusive
		r.Reason = ReasonControlPlane
		r.Total = false
	}
	return r
}
