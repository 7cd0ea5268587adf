// Seed scheduling for mutation-enabled campaigns: the persisted corpus
// doubles as the seed pool of the classic coverage-guided loop. Seeds are
// weighted by four multiplied factors:
//
//   - verdict class: defect classes first — a mutant of a program that
//     broke something once is the best candidate to break it again — then
//     the precision frontier;
//   - recency: newer findings describe the current frontier; older ones
//     have had their neighborhoods searched on previous nights;
//   - novelty: true coverage feedback from the corpus's novelty records
//     (state/novelty-*.json) — seeds whose mutants keep landing as new
//     dedup keys are boosted, seeds whose neighborhoods are mined out
//     fade, and seeds never mutated yet carry an exploration bonus;
//   - cluster saturation: the same novelty evidence aggregated over the
//     seed's whole (class, rule, shape-fingerprint) triage cluster — when
//     every explored member of a shape class stopped producing new keys,
//     the *unexplored* members of that class fade too, because they are
//     the same kind of program; a shape class still paying off lifts all
//     its members. Mined-out shape classes fade wholesale, not seed by
//     seed.
//
// A corpus with no novelty records multiplies every seed by the same
// neutral constants, so the distribution reduces exactly to the historical
// class × recency prior — pre-novelty corpora and freshly seeded pools
// schedule byte-identically to PR 3's scheduler (the cluster factor is
// derived from the same records and is neutral without them).
//
// Seeds are drawn per campaign index from the index's own rng, so
// scheduling is deterministic given (seed, pool): the window-union
// property survives mutation as long as the windows share a corpus
// snapshot — findings and novelty files alike.
package campaign

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/lattice"
	"repro/internal/mutate"
)

// seedEntry is one corpus program available for mutation.
type seedEntry struct {
	key     string
	class   Class
	source  string
	cluster string // (class, rule, fingerprint) key; unique for unparseable seeds

	seed   *mutate.Seed // source prepared for mutation; see mutationSeed
	parsed bool         // seed has been built (it stays nil if source does not parse)
}

// mutationSeed returns the entry's source prepared for mutation, built on
// the entry's first pick and reused by every later mutant of it and every
// splice from it; nil when the source does not parse. Only the campaign's
// producer goroutine picks seeds, so the build needs no lock.
func (s *seedEntry) mutationSeed() *mutate.Seed {
	if !s.parsed {
		s.parsed = true
		s.seed, _ = mutate.NewSeed(s.key+".p4", s.source)
	}
	return s.seed
}

// seedPool is a weighted sampler over corpus entries.
type seedPool struct {
	entries []seedEntry
	cum     []float64 // cumulative weights, parallel to entries
	total   float64
}

// classWeight ranks finding classes by how promising their neighborhoods
// are: defects first, then the precision frontier, then generator bugs
// (whose mutants usually fail admission anyway).
func classWeight(c Class) float64 {
	switch c {
	case ClassSoundnessViolation:
		return 4
	case ClassParserDisagreement, ClassRuntimeError:
		return 3
	case ClassRejectedClean, ClassProvedImprecise, ClassSecretExhausted,
		ClassUnderTested:
		// The split of rejected-clean stays on the precision frontier:
		// proved-imprecise and secret-exhaustive neighborhoods map the
		// checker's conservatism, under-tested ones may hide real leaks.
		return 2
	default:
		return 1
	}
}

// recencyDecay is the per-rank multiplier applied down the
// newest-to-oldest order; with 0.97, the hundredth-newest seed still
// keeps ~5% of the weight of the newest, so old seeds fade rather than
// vanish.
const recencyDecay = 0.97

// Novelty-boost constants. An unexplored seed sits at the neutral
// exploration bonus; an explored seed interpolates from noveltyFloor (all
// mutants were duplicates) up to noveltyFloor+noveltyGain (every mutant
// was a new key). The floor is positive so barren seeds fade rather than
// vanish — their neighborhoods may still pay off under a different
// lattice or operator mix — and the ceiling exceeds the bonus so proven
// producers outrank unexplored ones.
const (
	noveltyExploreBonus = 1.5
	noveltyFloor        = 0.5
	noveltyGain         = 3.0
)

// Cluster-saturation constants. A cluster none of whose members has been
// mutated yet is neutral (1.0 — the per-seed exploration bonus already
// rewards unexplored seeds); an explored cluster interpolates from
// clusterFloor (every mutant of every member was a duplicate: the shape
// class is mined out and all its members fade, explored or not) up to
// clusterFloor+clusterGain (the class keeps producing). The range brackets
// 1.0 so the factor is a genuine correction around the per-seed signal,
// never the dominant term.
const (
	clusterFloor = 0.5
	clusterGain  = 1.0
)

// noveltyBoost maps a seed's productivity record to a weight multiplier.
// Seeds with no record (or no analyzed mutants yet) are "unexplored".
func noveltyBoost(st NoveltyStat, known bool) float64 {
	if !known || st.Mutants == 0 {
		return noveltyExploreBonus
	}
	p := float64(st.NewKeys) / float64(st.Mutants)
	if p > 1 {
		p = 1 // defensive: hand-edited or merged-twice records
	}
	return noveltyFloor + noveltyGain*p
}

// clusterBoost maps a cluster's aggregated productivity (mutants and new
// keys summed over every member's novelty record) to a weight multiplier
// shared by all its members.
func clusterBoost(mutants, newKeys int) float64 {
	if mutants == 0 {
		return 1
	}
	p := float64(newKeys) / float64(mutants)
	if p > 1 {
		p = 1
	}
	return clusterFloor + clusterGain*p
}

// loadSeedPool builds a weighted pool over the open corpus's well-formed
// entries, applying the corpus's novelty records both per seed and
// aggregated per (class, rule, shape) cluster. A nil handle or an empty
// corpus yields an empty pool (the scheduler then generates everything
// fresh). Ordering — and therefore sampling — is deterministic: entries
// sort newest-first by recorded FoundAt with the dedup key as tiebreaker.
//
// Seeds whose label annotations the campaign lattice cannot resolve are
// excluded: a mixed corpus (chain-4 findings next to two-point ones) must
// not feed chain-4 seeds into a two-point campaign, where every mutant
// inheriting an "L1" annotation fails admission with an unknown-label
// resolve error. A nil lat admits everything (pre-lattice callers).
func loadSeedPool(c *corpus.Corpus, lat lattice.Lattice) (*seedPool, error) {
	p := &seedPool{}
	if c == nil {
		return p, nil
	}
	novelty, err := LoadNovelty(c.Dir())
	if err != nil {
		return nil, err
	}
	type rec struct {
		seedEntry
		foundAt int64
	}
	var recs []rec
	clusterMutants := map[string]int{}
	clusterNewKeys := map[string]int{}
	for e := range c.Select(corpus.Filter{}) {
		if !seedCompatible(e, lat) {
			continue
		}
		src, err := e.Source()
		if err != nil {
			continue // unreadable since Open; not a pool candidate
		}
		ck := clusterKeyOf(e)
		recs = append(recs, rec{
			seedEntry: seedEntry{key: e.Meta.Key, class: e.Meta.Class, source: src, cluster: ck},
			foundAt:   e.Meta.FoundAt.UnixNano(),
		})
		if st, known := novelty[e.Meta.Key]; known {
			clusterMutants[ck] += st.Mutants
			clusterNewKeys[ck] += st.NewKeys
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].foundAt != recs[j].foundAt {
			return recs[i].foundAt > recs[j].foundAt
		}
		return recs[i].key < recs[j].key
	})
	for rank, r := range recs {
		st, known := novelty[r.key]
		w := classWeight(r.class) * math.Pow(recencyDecay, float64(rank)) *
			noveltyBoost(st, known) * clusterBoost(clusterMutants[r.cluster], clusterNewKeys[r.cluster])
		p.total += w
		p.entries = append(p.entries, r.seedEntry)
		p.cum = append(p.cum, p.total)
	}
	return p, nil
}

// seedCompatible reports whether every security label the seed's program
// spells resolves in the campaign lattice. The check is semantic, not a
// comparison of recorded lattice specs: a chain-4 program that only ever
// writes "low"/"high" is a fine two-point seed, while one naming "L1" is
// not. Unparseable seeds pass — they carry no resolvable labels, and
// mutation falls back to fresh generation on them anyway.
func seedCompatible(e *corpus.Entry, lat lattice.Lattice) bool {
	if lat == nil {
		return true
	}
	prog, err := e.Program()
	if err != nil {
		return true
	}
	for _, l := range programLabels(prog) {
		if _, ok := lat.Lookup(l); !ok {
			return false
		}
	}
	return true
}

// programLabels collects every non-empty security label the program
// spells: SecType annotations everywhere the mutator's site walker
// reaches them (typedefs, header/struct fields, vars, function and
// control params, local and statement-level declarations) plus control
// @pc annotations.
func programLabels(p *ast.Program) []string {
	var labels []string
	sec := func(t *ast.SecType) {
		if t != nil && t.Label != "" {
			labels = append(labels, t.Label)
		}
	}
	var decl func(d ast.Decl)
	var block func(b *ast.BlockStmt)
	var stmt func(st ast.Stmt)
	decl = func(d ast.Decl) {
		switch d := d.(type) {
		case *ast.TypedefDecl:
			sec(d.Type)
		case *ast.HeaderDecl:
			for i := range d.Fields {
				sec(d.Fields[i].Type)
			}
		case *ast.StructDecl:
			for i := range d.Fields {
				sec(d.Fields[i].Type)
			}
		case *ast.VarDecl:
			sec(d.Type)
		case *ast.FuncDecl:
			for i := range d.Params {
				sec(d.Params[i].Type)
			}
			block(d.Body)
		}
	}
	block = func(b *ast.BlockStmt) {
		if b == nil {
			return
		}
		for _, st := range b.Stmts {
			stmt(st)
		}
	}
	stmt = func(st ast.Stmt) {
		switch st := st.(type) {
		case *ast.IfStmt:
			block(st.Then)
			if st.Else != nil {
				stmt(st.Else)
			}
		case *ast.BlockStmt:
			block(st)
		case *ast.DeclStmt:
			sec(st.Decl.Type)
		}
	}
	for _, d := range p.Decls {
		decl(d)
	}
	for _, c := range p.Controls {
		if c.PCLabel != "" {
			labels = append(labels, c.PCLabel)
		}
		for i := range c.Params {
			sec(c.Params[i].Type)
		}
		for _, d := range c.Locals {
			decl(d)
		}
		block(c.Apply)
	}
	return labels
}

// clusterKeyOf groups a seed into its triage cluster: (class, cited rule,
// shape fingerprint) — the same triple internal/triage clusters report
// rows by, computed from the same cached parse. A seed whose program does
// not parse (generator-bug entries can be unparseable) has no shape;
// it forms a singleton cluster keyed by its own dedup key, so unknowable
// shapes neither pool their evidence nor damp each other.
func clusterKeyOf(e *corpus.Entry) string {
	fp, err := e.Fingerprint()
	if err != nil {
		return "!unparsed\x00" + e.Meta.Key
	}
	return string(e.Meta.Class) + "\x00" + e.Rule() + "\x00" + fp
}

// size reports how many seeds the pool holds.
func (p *seedPool) size() int { return len(p.entries) }

// pick draws one seed, weight-proportionally, from rng.
func (p *seedPool) pick(rng *rand.Rand) *seedEntry {
	x := rng.Float64() * p.total
	i := sort.SearchFloat64s(p.cum, x)
	if i >= len(p.entries) {
		i = len(p.entries) - 1
	}
	return &p.entries[i]
}

// weightOf returns the sampling weight of the seed at index i (test and
// triage introspection; the pool's public behavior is pick).
func (p *seedPool) weightOf(i int) float64 {
	if i == 0 {
		return p.cum[0]
	}
	return p.cum[i] - p.cum[i-1]
}
