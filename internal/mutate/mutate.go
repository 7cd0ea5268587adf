// Package mutate is the coverage-guided half of the fuzzing loop: an
// AST-level mutator that turns persisted corpus findings (and any other
// parsed seed program) into new, semantically-aware variants. Where
// gen.Random samples the program space blindly, Mutate perturbs programs
// that already proved interesting — the classic corpus-as-seed-pool
// workflow — while staying inside the frontend's validity envelope.
//
// Mutation operators, each applied at a random admissible site:
//
//   - relabel: replace one security annotation with a different element of
//     the campaign lattice (raising, lowering, or moving sideways to an
//     incomparable element — the two-point special cases are flip ops);
//   - swap-op: swap a comparison, bitwise/arithmetic, or boolean operator
//     within its class, so the expression's type is preserved;
//   - perturb-lit: re-randomize an integer literal (within its width) or
//     flip a boolean literal;
//   - clone-perturb: deep-copy a statement, perturb the copy, and insert
//     it next to the original;
//   - wrap-if: wrap a statement in a conditional guarded by an expression
//     borrowed from the program (an existing guard, or `lval > k`),
//     creating fresh implicit-flow pressure;
//   - splice: graft a guard or a whole statement from a donor seed
//     (Config.Donor) into the program — crossover between corpus entries;
//   - drop-stmt: delete one statement.
//
// Every returned mutant is guaranteed to parse, to resolve under the
// campaign lattice, to pass the baseline (label-insensitive) checker, and
// to differ from its parent's canonical print — no identity mutations.
// The guarantee is enforced by verification, not hope: Mutate retries with
// fresh operator draws until a valid distinct mutant appears or the retry
// budget is exhausted (then it errors, and callers fall back to fresh
// generation). IFC acceptance is deliberately NOT guaranteed; rejections
// are what the differential campaign is after.
package mutate

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/resolve"
	"repro/internal/token"
)

// Config configures one mutation.
type Config struct {
	// Lattice is the campaign lattice spec (gen.Config.Lattice syntax;
	// "" = two-point). Relabel draws annotations from its elements, and
	// mutants must resolve under it.
	Lattice string
	// Donor is an optional second seed program; when set, splice operators
	// (guard and statement crossover) join the operator mix. A donor that
	// fails to parse is ignored rather than fatal — the corpus may hold
	// parser-disagreement entries whose value is exactly that they are
	// strange.
	Donor string
	// Ops bounds how many operators are applied per mutant: each attempt
	// applies 1 + rng.Intn(Ops) of them (default 2, so most mutants are
	// one or two edits from their parent — small steps keep the search
	// local to what made the seed interesting).
	Ops int
	// Retries bounds attempts to find a valid, distinct mutant
	// (default 16).
	Retries int
}

// Result is one successful mutation.
type Result struct {
	// Source is the mutant, printed canonically (ast.Print form).
	Source string
	// Ops names the operators applied, in order, for logs and triage.
	Ops []string
}

// Mutate parses src and returns a mutated variant per the package
// contract. It errors if src does not parse, the lattice spec is
// unresolvable, or no valid distinct mutant appears within the retry
// budget. It is NewSeed and Seed.Mutate in one call; a caller that
// mutates one program many times keeps the Seed instead.
func Mutate(rng *rand.Rand, file, src string, cfg Config) (Result, error) {
	lat, err := gen.Config{Lattice: cfg.Lattice}.ResolveLattice()
	if err != nil {
		return Result{}, fmt.Errorf("mutate: %w", err)
	}
	seed, err := NewSeed(file, src)
	if err != nil {
		return Result{}, err
	}
	var donor *Seed
	if cfg.Donor != "" {
		donor, _ = NewSeed(file+"#donor", cfg.Donor)
	}
	return seed.mutate(rng, lat, donor, cfg.Ops, cfg.Retries)
}

// Seed is one parent program prepared for repeated mutation, so frontend
// work is done once per Seed rather than once per mutation or attempt:
// NewSeed parses the source, the first mutation prints that tree
// canonically and parses the print as the base each attempt copies, and
// the first mutation that takes it as a donor collects the source tree's
// sites.
// A Seed is not safe for concurrent use.
type Seed struct {
	file  string
	tree  *ast.Program // the parse of the source; splice material as a donor
	canon string       // ast.Print(tree); a mutant must differ from it
	base  *ast.Program // the parse of canon; nil until first mutated
	graft *sites       // tree's sites; nil until first passed as a donor
}

// NewSeed parses src as a seed for mutation. It errors if src does not
// parse.
func NewSeed(file, src string) (*Seed, error) {
	tree, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("mutate: seed does not parse: %w", err)
	}
	return &Seed{file: file, tree: tree}, nil
}

// Mutate returns a mutated variant of s per the package contract, with
// the default operator and retry bounds. lat is the resolved campaign
// lattice; donor, when non-nil, adds the splice operators. It errors if
// no valid distinct mutant appears within the retry budget.
func (s *Seed) Mutate(rng *rand.Rand, lat lattice.Lattice, donor *Seed) (Result, error) {
	return s.mutate(rng, lat, donor, 0, 0)
}

func (s *Seed) mutate(rng *rand.Rand, lat lattice.Lattice, donor *Seed, ops, retries int) (Result, error) {
	if s.base == nil {
		s.canon = ast.Print(s.tree)
		base, err := parser.Parse(s.file, s.canon)
		if err != nil {
			return Result{}, fmt.Errorf("mutate: canonical print of %s does not reparse: %w", s.file, err)
		}
		s.base = base
	}
	if ops <= 0 {
		ops = 2
	}
	if retries <= 0 {
		retries = 16
	}
	m := &mutator{rng: rng, lat: lat}
	if donor != nil {
		if donor.graft == nil {
			donor.graft = collect(donor.tree)
		}
		m.donor = donor.graft
	}
	for attempt := 0; attempt < retries; attempt++ {
		// Each attempt mutates a fresh copy of the base, so rejected
		// candidates leave no residue.
		prog := copyProgram(s.base)
		applied := m.apply(prog, 1+rng.Intn(ops))
		if len(applied) == 0 {
			continue
		}
		out := ast.Print(prog)
		if out == s.canon || !valid(s.file, out, lat) {
			continue
		}
		return Result{Source: out, Ops: applied}, nil
	}
	return Result{}, fmt.Errorf("mutate: no valid mutant of %s within %d attempts", s.file, retries)
}

// valid is the mutant admission predicate: parse, resolve under lat, and
// base-check. Base-checking matters operationally — the campaign engine
// classifies base-check failures as generator bugs (implementation
// defects), so an undeclared-identifier graft must die here, not there.
func valid(file, src string, lat lattice.Lattice) bool {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return false
	}
	var diags diag.List
	resolve.New(lat, &diags).CollectTypeDecls(prog)
	if diags.Err() != nil {
		return false
	}
	return basecheck.Check(prog).OK
}

// mutator holds one mutation's state.
type mutator struct {
	rng   *rand.Rand
	lat   lattice.Lattice
	donor *sites // the donor's sites; nil without a donor
}

// op is one mutation operator; it reports whether it found an admissible
// site and mutated it.
type op struct {
	name string
	fn   func(*mutator, *ast.Program, *sites) bool
}

var operators = []op{
	{"relabel", (*mutator).relabel},
	{"swap-op", (*mutator).swapOp},
	{"perturb-lit", (*mutator).perturbLit},
	{"clone-perturb", (*mutator).clonePerturb},
	{"wrap-if", (*mutator).wrapIf},
	{"splice", (*mutator).splice},
	{"drop-stmt", (*mutator).dropStmt},
}

// apply applies up to n operators to prog, re-collecting sites after each
// (an inserted statement is itself a site for the next operator). For each
// application the operator order is shuffled and tried until one finds a
// site, so apply only fails on programs with no mutable structure at all.
func (m *mutator) apply(prog *ast.Program, n int) []string {
	var applied []string
	for i := 0; i < n; i++ {
		s := collect(prog)
		order := m.rng.Perm(len(operators))
		done := false
		for _, oi := range order {
			o := operators[oi]
			if o.fn(m, prog, s) {
				applied = append(applied, o.name)
				done = true
				break
			}
		}
		if !done {
			break
		}
	}
	return applied
}

// ---------------------------------------------------------------------------
// Operators

// relabel rewrites one security annotation to a different lattice element.
func (m *mutator) relabel(_ *ast.Program, s *sites) bool {
	if len(s.secs) == 0 {
		return false
	}
	st := s.secs[m.rng.Intn(len(s.secs))]
	elems := m.lat.Elements()
	// Resolve the current label (aliases included) so "pick different"
	// means semantically different, not just a different spelling.
	cur, known := m.lat.Lookup(st.Label)
	if st.Label == "" {
		cur, known = m.lat.Bottom(), true
	}
	var cands []lattice.Label
	for _, e := range elems {
		if !known || e != cur {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return false
	}
	st.Label = cands[m.rng.Intn(len(cands))].Name()
	return true
}

// opClasses groups operators whose swap preserves the expression's base
// type (and avoids division — a zero divisor would turn a mutant into a
// runtime-error finding against the interpreter, which the campaign counts
// as a defect).
var opClasses = [][]token.Kind{
	{token.EQ, token.NEQ, token.LT, token.GT, token.LEQ, token.GEQ},
	{token.PLUS, token.MINUS, token.AMP, token.PIPE, token.CARET},
	{token.AND, token.OR},
}

func opClass(k token.Kind) []token.Kind {
	for _, c := range opClasses {
		for _, o := range c {
			if o == k {
				return c
			}
		}
	}
	return nil
}

// swapOp swaps one binary operator within its class.
func (m *mutator) swapOp(_ *ast.Program, s *sites) bool {
	var cands []*ast.Binary
	for _, b := range s.bins {
		if opClass(b.Op) != nil {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return false
	}
	b := cands[m.rng.Intn(len(cands))]
	class := opClass(b.Op)
	next := class[m.rng.Intn(len(class))]
	for next == b.Op {
		next = class[m.rng.Intn(len(class))]
	}
	b.Op = next
	return true
}

// perturbLit re-randomizes one literal, always to a different value.
func (m *mutator) perturbLit(_ *ast.Program, s *sites) bool {
	total := len(s.ints) + len(s.bools)
	if total == 0 {
		return false
	}
	i := m.rng.Intn(total)
	if i < len(s.ints) {
		lit := s.ints[i]
		bound := uint64(256)
		if lit.HasWidth && lit.Width < 8 {
			bound = 1 << lit.Width
		}
		next := uint64(m.rng.Intn(int(bound)))
		for next == lit.Val {
			next = uint64(m.rng.Intn(int(bound)))
		}
		lit.Val = next
		return true
	}
	b := s.bools[i-len(s.ints)]
	b.Val = !b.Val
	return true
}

// clonePerturb duplicates one statement and perturbs the copy in place.
// Declarations are skipped (a duplicate declaration never base-checks).
func (m *mutator) clonePerturb(_ *ast.Program, s *sites) bool {
	type slot struct {
		b *ast.BlockStmt
		i int
	}
	var cands []slot
	for _, b := range s.blocks {
		for i, st := range b.Stmts {
			if _, isDecl := st.(*ast.DeclStmt); !isDecl {
				cands = append(cands, slot{b, i})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[m.rng.Intn(len(cands))]
	clone := copyStmt(c.b.Stmts[c.i])
	// Perturb inside the clone; a pure duplicate is still a mutation (the
	// program text changed), so a site-less clone is fine.
	cs := &sites{}
	cs.stmt(clone)
	if !m.swapOp(nil, cs) && !m.perturbLit(nil, cs) {
		m.relabel(nil, cs)
	}
	c.b.Stmts = append(c.b.Stmts[:c.i+1], append([]ast.Stmt{clone}, c.b.Stmts[c.i+1:]...)...)
	return true
}

// guardExpr builds a boolean guard from material already in the program:
// a copied existing condition, or `lval > k` over a copied assignment LHS.
func (m *mutator) guardExpr(s *sites) ast.Expr {
	switch {
	case len(s.conds) > 0 && (len(s.lvals) == 0 || m.rng.Intn(2) == 0):
		return copyExpr(s.conds[m.rng.Intn(len(s.conds))])
	case len(s.lvals) > 0:
		return &ast.Binary{
			Op: token.GT,
			X:  copyExpr(s.lvals[m.rng.Intn(len(s.lvals))]),
			Y:  &ast.IntLit{Val: uint64(m.rng.Intn(16))},
		}
	default:
		return nil
	}
}

// wrapIf guards one statement with a fresh conditional.
func (m *mutator) wrapIf(_ *ast.Program, s *sites) bool {
	guard := m.guardExpr(s)
	if guard == nil {
		return false
	}
	var cands []*ast.BlockStmt
	for _, b := range s.blocks {
		if len(b.Stmts) > 0 {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return false
	}
	b := cands[m.rng.Intn(len(cands))]
	i := m.rng.Intn(len(b.Stmts))
	if _, isDecl := b.Stmts[i].(*ast.DeclStmt); isDecl {
		return false // hiding a declaration inside an if breaks later uses
	}
	b.Stmts[i] = &ast.IfStmt{
		Cond: guard,
		Then: &ast.BlockStmt{Stmts: []ast.Stmt{b.Stmts[i]}},
	}
	return true
}

// splice grafts donor material: either a donor guard replaces one of the
// program's guards, or a donor statement is inserted into a block. The
// admission predicate rejects grafts that reference structure the target
// program lacks.
func (m *mutator) splice(_ *ast.Program, s *sites) bool {
	ds := m.donor
	if ds == nil {
		return false
	}
	if len(ds.conds) > 0 && len(s.ifs) > 0 && m.rng.Intn(2) == 0 {
		s.ifs[m.rng.Intn(len(s.ifs))].Cond = copyExpr(ds.conds[m.rng.Intn(len(ds.conds))])
		return true
	}
	var cands []ast.Stmt
	for _, b := range ds.blocks {
		for _, st := range b.Stmts {
			if _, isDecl := st.(*ast.DeclStmt); !isDecl {
				cands = append(cands, st)
			}
		}
	}
	if len(cands) == 0 || len(s.blocks) == 0 {
		return false
	}
	b := s.blocks[m.rng.Intn(len(s.blocks))]
	i := m.rng.Intn(len(b.Stmts) + 1)
	clone := copyStmt(cands[m.rng.Intn(len(cands))])
	b.Stmts = append(b.Stmts[:i], append([]ast.Stmt{clone}, b.Stmts[i:]...)...)
	return true
}

// dropStmt deletes one statement from a block with at least two, so the
// program keeps a body.
func (m *mutator) dropStmt(_ *ast.Program, s *sites) bool {
	var cands []*ast.BlockStmt
	for _, b := range s.blocks {
		if len(b.Stmts) >= 2 {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return false
	}
	b := cands[m.rng.Intn(len(cands))]
	i := m.rng.Intn(len(b.Stmts))
	b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
	return true
}
