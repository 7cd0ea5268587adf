// Package repro is the public API of the P4BID reproduction: an
// information-flow control (IFC) type system for the Core P4 fragment of
// Grewal, D'Antoni, and Hsu, "P4BID: Information Flow Control in P4"
// (PLDI 2022), together with the substrates the paper depends on — a P4
// frontend, a baseline (label-insensitive) Core P4 typechecker, a Core P4
// interpreter with a match-action control-plane simulator, and a
// non-interference testing harness.
//
// # Quick start: checking one program
//
//	prog, err := repro.Parse("leak.p4", src)
//	res := repro.Check(prog, repro.TwoPoint())
//	if !res.OK {
//	    fmt.Println(res.Err()) // each error cites the violated typing rule
//	}
//
// Programs are written in P4-16 surface syntax with security annotations
// on types: <bit<8>, high> marks an 8-bit secret field. Unannotated types
// default to the lattice bottom (public/trusted). Control blocks may be
// checked in a raised security context with @pc(label), as the paper's
// isolation case study does for Alice (pc = A) and Bob (pc = B).
//
// # Quick start: the campaign stack
//
// Long-running validation — fuzz campaigns, regression replay, corpus
// analytics, corpus hygiene — runs through one configured Session over
// one on-disk finding Corpus:
//
//	s, err := repro.NewSession(
//	    repro.WithCorpus("fuzz-corpus"),
//	    repro.WithLattice("chain:4"),
//	    repro.WithMutation(0.5),
//	    repro.WithNIBudget(4, 32),
//	)
//	defer s.Close()
//	go func() { // optional: live progress
//	    for ev := range s.Events() {
//	        fmt.Println(ev.Op, ev.Kind, ev.Class, ev.Detail)
//	    }
//	}()
//	rep, err := s.Campaign(ctx, 20000) // fuzz 20k programs, persist findings
//	rr, err := s.Replay(ctx)           // corpus as regression suite
//	tr, err := s.Triage()              // ranked (class, rule, shape) clusters
//	cr, err := s.Compact(ctx)          // re-minimize, fold equal findings
//	bs, err := s.CheckAll(ctx, jobs)   // batch-analyze caller-supplied jobs
//
// Campaign alone also runs without WithCorpus: findings are then kept in
// memory on the report instead of persisted.
//
// # Quick start: selecting the noninterference oracle
//
// By default NI verdicts are sampled: randomized trials with adaptive
// escalation on IFC-rejected programs. WithNIOracle switches the backend;
// "exhaustive" enumerates every secret assignment (within a budget) on
// the compiled engine and upgrades clean results to proofs:
//
//	s, err := repro.NewSession(
//	    repro.WithCorpus("fuzz-corpus"),
//	    repro.WithNIOracle("exhaustive"),        // or "adaptive", "randomized"
//	    repro.WithExhaustBudget(1<<20, 16),      // 2^20 assignments, 16 probes
//	)
//
// Under the exhaustive oracle an IFC-rejected, violation-free program is
// split by enumeration coverage instead of pooling into rejected-clean:
// class "proved-imprecise" (the whole public × secret input space
// enumerated clean — the rejection is conservatism, a proved false
// positive), "secret-exhaustive" (every secret assignment clean, but
// only at sampled public probes because the public side exceeded the
// budget — strong evidence of conservatism, not a full-space proof), or
// "under-tested" (the secret space exceeded the budget, so only the
// sampling fallback ran). Programs with a witnessed violation are exact
// counterexamples either way. The oracle and budget are recorded in each
// finding's metadata, so Replay re-judges under the same oracle.
//
// Every operation frames its events with op-start/op-end (op-end carries
// a one-line outcome), so one consumer can interleave many operations'
// events; if a slow consumer forces the stream to shed events, the
// operation ends with a warning event carrying the drop count. Failures
// an operation works around — a finding the corpus could not store, an
// index or metrics snapshot not saved — arrive as warning events too: the
// stream is the operations' only progress channel. The p4fuzz CLI
// renders it as text on stderr, or as one JSON object per line with
// -events-json, and cmd/p4fuzzd runs campaigns as a
// work-leasing fleet of processes coordinated through files under
// <corpus>/fleet/ — see internal/fleet and EXPERIMENTS.md.
//
// Every operation also records telemetry — job counters, per-stage
// pipeline timings, op-duration histograms — into the Session's metrics
// registry: Session.Metrics returns the live snapshot, and the same
// snapshot is persisted as metrics.json next to the corpus when each
// operation ends. `p4fuzzd -http ADDR` serves the fleet-merged form
// live (/metrics, /metrics.json, /healthz, /debug/pprof) while a fleet
// runs — see internal/metrics and the fleet telemetry section of
// EXPERIMENTS.md.
//
// The Session owns the corpus handle: the directory is opened once (its
// metadata index makes that open cheap — sources are read and parsed only
// when an operation needs them), and every operation reads and writes
// through the same cached handle. NI checking inside a campaign compiles
// each program once per job — the trials themselves run on the compiled
// engine (falling back to the tree-walking interpreter only if
// compilation fails), so the per-trial cost is the compiled rate
// EXPERIMENTS.md records, not the interpreter's. Session.Corpus exposes
// it for direct queries:
//
//	c, err := s.Corpus()
//	for e := range c.Select(repro.CorpusFilter{Class: "rejected-clean"}) {
//	    fmt.Println(e.Path, e.Rule())
//	}
//	fmt.Printf("%+v\n", c.Stats())
package repro

import (
	"math/rand"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/campaign"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/mutate"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/progs"
	"repro/internal/triage"
)

// Program is a parsed P4 program.
type Program = ast.Program

// Result is the outcome of IFC typechecking; see Err, Diags, and the
// inferred FuncPC/TablePC labels.
type Result = core.Result

// BaseResult is the outcome of label-insensitive (baseline) typechecking.
type BaseResult = basecheck.Result

// Lattice is a security lattice; Label is one of its elements.
type (
	Lattice = lattice.Lattice
	Label   = lattice.Label
)

// Parse parses a P4 program in the paper's fragment. file names the source
// in diagnostics.
func Parse(file, src string) (*Program, error) { return parser.Parse(file, src) }

// MustParse is Parse panicking on error; for known-good embedded sources.
func MustParse(file, src string) *Program { return parser.MustParse(file, src) }

// Check typechecks prog with the P4BID IFC type system over lat.
// Well-typed programs satisfy non-interference (the paper's Theorem 4.3).
func Check(prog *Program, lat Lattice) *Result { return core.Check(prog, lat) }

// CheckBase typechecks prog with the ordinary Core P4 type system,
// ignoring security labels — the paper's Table 1 baseline ("p4c").
func CheckBase(prog *Program) *BaseResult { return basecheck.Check(prog) }

// TwoPoint returns the {low ⊑ high} lattice.
func TwoPoint() Lattice { return lattice.TwoPoint() }

// Diamond returns the four-point isolation lattice of Figure 8b:
// bot ⊑ A, B ⊑ top.
func Diamond() Lattice { return lattice.Diamond() }

// NParty generalizes Diamond to the named parties.
func NParty(names ...string) Lattice { return lattice.NParty(names...) }

// LatticeByName resolves "two-point", "diamond", "chain:N", "nparty:N",
// "powerset:N", or "product:a,b" (a and b themselves specs).
func LatticeByName(name string) (Lattice, error) { return lattice.ByName(name) }

// Powerset returns the subset lattice over the given atoms, with
// label-safe element spellings ("p_a_b"; brace forms stay as aliases).
func Powerset(atoms ...string) Lattice { return lattice.Powerset(atoms...) }

// Product returns the component-wise product of two lattices, with
// label-safe element spellings ("x_low_high"; "low×high" forms stay as
// aliases) — e.g. a confidentiality lattice crossed with an integrity
// lattice.
func Product(a, b Lattice) Lattice { return lattice.Product(a, b) }

// ControlPlane holds installed match-action table entries; see the
// controlplane helpers re-exported below.
type ControlPlane = controlplane.ControlPlane

// Entry, Pattern, and ActionCall describe installed table state.
type (
	Entry      = controlplane.Entry
	Pattern    = controlplane.Pattern
	ActionCall = controlplane.ActionCall
)

// NewControlPlane returns an empty control plane.
func NewControlPlane() *ControlPlane { return controlplane.New() }

// Exact, LPM, Ternary, and Wildcard build match patterns for w-bit keys.
func Exact(w int, v uint64) Pattern              { return controlplane.Exact(w, v) }
func LPM(w int, prefix uint64, plen int) Pattern { return controlplane.LPM(w, prefix, plen) }
func Ternary(w int, v, mask uint64) Pattern      { return controlplane.Ternary(w, v, mask) }
func Wildcard(w int) Pattern                     { return controlplane.Wildcard(w) }

// Interp executes programs; Value and Signal are its runtime types.
type (
	Interp = eval.Interp
	Value  = eval.Value
	Signal = eval.Signal
)

// NewInterp prepares an interpreter for prog against cp (nil = empty).
func NewInterp(prog *Program, cp *ControlPlane) (*Interp, error) { return eval.New(prog, cp) }

// NIExperiment is a randomized two-run non-interference experiment; see
// internal/ni for the trial protocol.
type NIExperiment = ni.Experiment

// NIViolation is a concrete interference witness.
type NIViolation = ni.Violation

// CaseStudy is one of the paper's Section 5 programs; CaseStudies returns
// them in Table 1 order (D2R, App, Lattice, Topology, Cache) plus
// NetChain.
type CaseStudy = progs.Program

// CaseStudies returns all embedded case studies.
func CaseStudies() []*CaseStudy { return progs.All() }

// CaseStudyByName looks a case study up by its Table 1 row name.
func CaseStudyByName(name string) (*CaseStudy, bool) { return progs.ByName(name) }

// Variants of a case study.
const (
	Buggy       = progs.Buggy
	Fixed       = progs.Fixed
	Unannotated = progs.Unannotated
)

// StripAnnotations removes security annotations from source text, yielding
// the plain-P4 program a stock compiler would see.
func StripAnnotations(src string) string { return progs.StripAnnotations(src) }

// PrintProgram renders a parsed program back into parseable surface syntax.
func PrintProgram(prog *Program) string { return ast.Print(prog) }

// BatchJob names one program for Session.CheckAll and Session.CheckStream;
// BatchResult is one job's outcome and BatchSummary aggregates a batch
// (see internal/pipeline).
type (
	BatchJob     = pipeline.Job
	BatchSummary = pipeline.Summary
	BatchResult  = pipeline.JobResult
)

// CampaignReport is Session.Campaign's outcome and CampaignFinding one
// collected program (see internal/campaign for the corpus layout and
// class set).
type (
	CampaignReport  = campaign.Report
	CampaignFinding = campaign.Finding
)

// FormatCampaignReport renders a campaign report: the verdict table plus
// corpus, dedup, and minimization statistics.
func FormatCampaignReport(r *CampaignReport) string { return campaign.FormatReport(r) }

// CompactReport is Session.Compact's outcome.
type CompactReport = campaign.CompactReport

// FormatCompactReport renders a compaction's outcome.
func FormatCompactReport(r *CompactReport) string { return campaign.FormatCompactReport(r) }

// MutateConfig configures Mutate (see internal/mutate for the operator
// set: relabel against the campaign lattice, operator swaps, literal
// perturbation, clone-and-perturb, wrap-in-if, donor splicing, statement
// deletion).
type MutateConfig = mutate.Config

// Mutate applies semantically-aware random mutations (seeded by seed) to
// a P4 program and returns the mutant's source. The mutant is guaranteed
// to parse, resolve under the campaign lattice named by cfg.Lattice, pass
// the baseline checker, and differ from the input's canonical print; IFC
// acceptance is deliberately not guaranteed. Campaigns use this through
// WithMutation — the corpus-as-seed-pool coverage-guided loop — but it is
// equally a building block for custom search strategies.
func Mutate(seed int64, file, src string, cfg MutateConfig) (string, error) {
	res, err := mutate.Mutate(rand.New(eval.NewSource(seed)), file, src, cfg)
	return res.Source, err
}

// ReplayReport is Session.Replay's outcome, listing any verdict drifts.
// OK() is false iff some finding no longer classifies the way its
// metadata records (or could not be replayed at all) — run it as a
// pre-merge gate to catch verdict drift before it lands.
type ReplayReport = campaign.ReplayReport

// FormatReplayReport renders a replay report: per-class counts plus any
// drifted findings.
func FormatReplayReport(r *ReplayReport) string { return campaign.FormatReplayReport(r) }

// TriageReport is Session.Triage's outcome and TriageCluster one (class,
// rule, shape) group of findings. Every finding gets an AST shape
// fingerprint (a canonical skeleton hash abstracting identifiers and
// literals but keeping statement structure, label positions, and operator
// type-classes), findings are clustered by (verdict class, cited typing
// rule, shape), and the clusters are ranked by size with exemplars,
// origin mix, discovery-time brackets, and NI budgets (see
// internal/triage). TriageReport.OK() is false iff some corpus entry is
// malformed (unreadable pair, non-finding metadata, unparseable program)
// — run it as a gate to keep corpus metadata trustworthy.
type (
	TriageReport  = triage.Report
	TriageCluster = triage.Cluster
)

// FormatTriageReport renders the ranked cluster table as text;
// MarshalTriageReport as indented JSON.
func FormatTriageReport(r *TriageReport) string           { return triage.FormatReport(r) }
func MarshalTriageReport(r *TriageReport) ([]byte, error) { return triage.MarshalJSONReport(r) }

// FingerprintProgram returns the AST shape fingerprint triage clusters
// by: equal fingerprints mean equal canonical skeletons.
func FingerprintProgram(prog *Program) string { return corpus.Fingerprint(prog) }

// TriageDiff is the outcome of comparing two triage reports;
// TriageClusterDelta one cluster whose size moved between them.
type (
	TriageDiff         = triage.DiffReport
	TriageClusterDelta = triage.ClusterDelta
)

// DiffTriageReports compares two triage reports cluster by cluster —
// the time-series view: a cluster only in the new report is a new defect
// class, a grown one is more of a known class, a gone one emptied out.
func DiffTriageReports(old, new *TriageReport) *TriageDiff { return triage.DiffReports(old, new) }

// UnmarshalTriageReport decodes a triage report from the JSON artifact
// form MarshalTriageReport produces — so nightly reports diff across runs.
func UnmarshalTriageReport(raw []byte) (*TriageReport, error) { return triage.UnmarshalReport(raw) }

// FormatTriageDiff renders a triage diff as text; MarkdownTriageDiff as a
// GitHub-flavored Markdown fragment for CI job summaries.
func FormatTriageDiff(d *TriageDiff) string   { return triage.FormatDiff(d) }
func MarkdownTriageDiff(d *TriageDiff) string { return triage.MarkdownDiff(d) }

// RetireReport is Session.Retire's outcome: the findings promoted into
// the retired corpus (re-recorded under their current classification, so
// each fix gains a regression guard) and removed from the live one.
type RetireReport = triage.RetireReport

// FormatRetireReport renders a retire pass's outcome.
func FormatRetireReport(r *RetireReport) string { return triage.FormatRetireReport(r) }
