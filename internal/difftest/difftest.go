// Package difftest defines the verdict classes of differential soundness
// fuzzing and Classify, which maps one internal/pipeline result to its
// class. Classify cross-checks the three oracles the repo implements:
//
//   - the IFC checker (internal/core) — the paper's contribution;
//   - the baseline checker (internal/basecheck) — label-insensitive Core P4;
//   - the NI harness (internal/ni) — empirical non-interference testing.
//
// The campaign engine (internal/campaign), its corpus replay, and the
// Session's batch-check events all classify through it, so a verdict
// means the same thing everywhere.
//
// Each analyzed program lands in exactly one verdict class:
//
//   - Sound: IFC-accepted and no NI trial found interference. This is the
//     mass of evidence for Theorem 4.3.
//   - SoundnessViolation: IFC-accepted but an NI trial produced an
//     interference witness. Any such program falsifies the implementation
//     (checker bug, interpreter bug, or harness bug) and is reported with
//     its seed for replay.
//   - RejectedWitnessed: IFC-rejected and the NI harness found a concrete
//     interference witness — evidence the rejection was a true positive.
//   - RejectedClean: IFC-rejected, baseline-accepted, and NI-clean over
//     the trial budget. Precision data: the rejection may be conservative
//     (flow-insensitivity, label creep) or the trials may simply have
//     missed the leak; the ratio against RejectedWitnessed tracks the
//     checker's observed precision. Under the exhaustive oracle this
//     class splits by how much the enumeration covered: ProvedImprecise
//     (the full public × secret space was enumerated clean: the
//     rejection is definitely conservative), SecretExhausted (every
//     secret assignment was clean at each sampled public probe — strong
//     evidence of imprecision, but a leak at an unprobed public state is
//     not excluded), and UnderTested (enumeration was inconclusive:
//     still ambiguous).
//   - GeneratorBug: the program failed to parse, resolve, or base-check.
//     gen.Random promises syntactically and structurally valid output, so
//     anything here is a generator (or frontend) defect.
//   - RuntimeError: an NI run failed with a runtime error; also a defect,
//     since base-well-typed programs must evaluate cleanly.
package difftest

import (
	"fmt"

	"repro/internal/ni"
	"repro/internal/pipeline"
)

// Verdict classifies one fuzzed program.
type Verdict int

// Verdicts, in severity order: anything above Sound is interesting and
// anything at SoundnessViolation or worse fails the harness.
const (
	Sound Verdict = iota
	RejectedWitnessed
	RejectedClean
	// ProvedImprecise splits the precision class with proof: the
	// exhaustive oracle enumerated the entire public × secret input
	// space at every observer (pipeline.JobResult.NITotal) and certified
	// the rejected program non-interfering — the rejection is definitely
	// conservative, not under-tested.
	ProvedImprecise
	// SecretExhausted is the probe-mode certification: every secret
	// assignment was enumerated clean, but only at sampled public
	// probes, because the public side exceeded the budget. No secret
	// influences the observables at any probed state — strong evidence
	// the rejection is conservative, but not a proof over the whole
	// input space, so it must never be conflated with ProvedImprecise.
	SecretExhausted
	// UnderTested is the residue of the split: the program was
	// rejected, no witness was found, and the exhaustive oracle could not
	// enumerate (width budget, int-typed secrets, ...), so the rejection
	// remains unclassified between imprecision and a missed leak.
	UnderTested
	GeneratorBug
	RuntimeError
	SoundnessViolation
	// NumVerdicts bounds the verdict enum; verdict tallies are arrays
	// indexed by it.
	NumVerdicts
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Sound:
		return "sound (IFC-accepted, NI-clean)"
	case RejectedWitnessed:
		return "rejected, interference witnessed"
	case RejectedClean:
		return "rejected, NI-clean (conservative?)"
	case ProvedImprecise:
		return "rejected, proved non-interfering (imprecise)"
	case SecretExhausted:
		return "rejected, secret-exhaustive (clean at sampled publics)"
	case UnderTested:
		return "rejected, enumeration inconclusive (under-tested)"
	case GeneratorBug:
		return "generator bug (parse/base failure)"
	case RuntimeError:
		return "runtime error"
	case SoundnessViolation:
		return "SOUNDNESS VIOLATION"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Classify maps one pipeline result to its verdict class and the detail
// text (witness, rule citation counts, or error) that goes with it.
func Classify(r *pipeline.JobResult) (Verdict, string) {
	switch {
	case r.ParseErr != nil:
		return GeneratorBug, "parse: " + r.ParseErr.Error()
	case r.ResolveErr != nil:
		return GeneratorBug, "resolve: " + r.ResolveErr.Error()
	case !r.BaseOK():
		detail := "basecheck rejected"
		if r.Base != nil && r.Base.Err() != nil {
			detail = "basecheck: " + r.Base.Err().Error()
		}
		return GeneratorBug, detail
	case r.IFCOK():
		// Witnesses outrank trial errors: ni.Experiment.Run can return
		// violations from early trials alongside an error from a later
		// one, and a witnessed soundness violation must never be masked.
		if len(r.NIViolations) > 0 {
			return SoundnessViolation, r.NIViolations[0].String()
		}
		if r.NIErr != nil {
			return RuntimeError, r.NIErr.Error()
		}
		return Sound, ""
	default:
		if len(r.NIViolations) > 0 {
			return RejectedWitnessed, r.NIViolations[0].String()
		}
		if r.NIErr != nil {
			return RuntimeError, r.NIErr.Error()
		}
		// A clean rejection under the exhaustive oracle carries proof
		// provenance, graded by coverage: a total enumeration certifies
		// the rejection as imprecision; a probe-mode clean sweep (all
		// secrets, sampled publics — NITotal false) only certifies the
		// probed states, so it gets its own class rather than passing as
		// a proof; an inconclusive one leaves the program in the untested
		// gap.
		switch r.NIOutcome {
		case ni.ProvedSecure:
			if r.NITotal {
				return ProvedImprecise, fmt.Sprintf(
					"exhaustive: non-interfering over the full input space (%d assignments)", r.NIAssignments)
			}
			return SecretExhausted, fmt.Sprintf(
				"exhaustive: no secret influence at sampled public probes (%d assignments)", r.NIAssignments)
		case ni.Inconclusive:
			return UnderTested, "exhaustive: " + r.NIReason
		}
		return RejectedClean, ""
	}
}
