// Package gen generates P4 programs in the paper's fragment, for two uses:
//
//   - Synth builds deterministic programs of a requested size (headers,
//     actions, tables, apply statements) for the scaling benchmarks that
//     extend Table 1 (checker time vs program size);
//   - Random builds randomized programs (assignments, conditionals, action
//     calls over a labelled header) for the soundness property test: every
//     randomly generated program that the IFC checker accepts must pass the
//     non-interference harness.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lattice"
)

// Synth returns a well-typed two-point-lattice program with numTables
// tables, each selecting among actionsPerTable actions over a header with
// fieldsPerHeader low fields and fieldsPerHeader high fields. The apply
// block applies every table and performs a conditional per table.
func Synth(numTables, actionsPerTable, fieldsPerHeader int) string {
	var b strings.Builder
	b.WriteString("header data_t {\n")
	for i := 0; i < fieldsPerHeader; i++ {
		fmt.Fprintf(&b, "    <bit<32>, low> lo%d;\n", i)
		fmt.Fprintf(&b, "    <bit<32>, high> hi%d;\n", i)
	}
	b.WriteString("}\nstruct headers { data_t d; }\n")
	b.WriteString("control Synth_Ingress(inout headers hdr, inout standard_metadata_t standard_metadata) {\n")
	for t := 0; t < numTables; t++ {
		for a := 0; a < actionsPerTable; a++ {
			f := (t*actionsPerTable + a) % fieldsPerHeader
			// Even actions write low fields, odd actions write high.
			if a%2 == 0 {
				fmt.Fprintf(&b, "    action act_%d_%d(<bit<32>, low> v) {\n", t, a)
				fmt.Fprintf(&b, "        hdr.d.lo%d = v + hdr.d.lo%d;\n", f, (f+1)%fieldsPerHeader)
				fmt.Fprintf(&b, "        hdr.d.hi%d = hdr.d.hi%d + 1;\n", f, f)
			} else {
				fmt.Fprintf(&b, "    action act_%d_%d(<bit<32>, high> v) {\n", t, a)
				fmt.Fprintf(&b, "        hdr.d.hi%d = v ^ hdr.d.hi%d;\n", f, (f+1)%fieldsPerHeader)
			}
			b.WriteString("    }\n")
		}
		// A table whose actions all write low keys on a low field; a table
		// whose actions all write high may key on a high field. Mixed
		// tables key low.
		fmt.Fprintf(&b, "    table tbl_%d {\n", t)
		fmt.Fprintf(&b, "        key = { hdr.d.lo%d: exact; }\n", t%fieldsPerHeader)
		b.WriteString("        actions = { ")
		for a := 0; a < actionsPerTable; a++ {
			fmt.Fprintf(&b, "act_%d_%d; ", t, a)
		}
		b.WriteString("NoAction; }\n    }\n")
	}
	b.WriteString("    apply {\n")
	for t := 0; t < numTables; t++ {
		f := t % fieldsPerHeader
		fmt.Fprintf(&b, "        if (hdr.d.lo%d > 7) {\n", f)
		fmt.Fprintf(&b, "            tbl_%d.apply();\n", t)
		b.WriteString("        }\n")
		fmt.Fprintf(&b, "        if (hdr.d.hi%d > 3) {\n", f)
		fmt.Fprintf(&b, "            hdr.d.hi%d = hdr.d.hi%d + 2;\n", (f+1)%fieldsPerHeader, f)
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// SynthChainLabels returns a program annotated against a chain-n lattice
// (labels L0..L(n-1)), with one assignment per adjacent pair, used to
// measure checker cost as lattice height grows.
func SynthChainLabels(n int) string {
	var b strings.Builder
	b.WriteString("header data_t {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    <bit<32>, L%d> f%d;\n", i, i)
	}
	b.WriteString("}\nstruct headers { data_t d; }\n")
	b.WriteString("control Chain_Ingress(inout headers hdr, inout standard_metadata_t standard_metadata) {\n")
	b.WriteString("    apply {\n")
	for i := 0; i+1 < n; i++ {
		// Upward flows only: L_i ⊑ L_{i+1}.
		fmt.Fprintf(&b, "        hdr.d.f%d = hdr.d.f%d + 1;\n", i+1, i)
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// Config controls Random program generation.
type Config struct {
	// MaxDepth bounds conditional nesting.
	MaxDepth int
	// MaxStmts bounds statements per block.
	MaxStmts int
	// NumFields is the number of header fields emitted per lattice label.
	NumFields int
	// WithActions also generates actions and direct action calls.
	WithActions bool
	// Lattice names the campaign lattice the program is generated and
	// annotated against: "" or "two-point", "diamond", "chain:N",
	// "nparty:N", or "powerset:N" (lattice.ByName syntax). The empty spec defaults
	// explicitly to two-point; anything unresolvable is rejected by
	// Validate (and makes Random panic, so validate configs at the API
	// boundary). Non-two-point lattices switch Random to the generalized
	// emitter: one field group per lattice element, label pairs drawn
	// against the configured order.
	Lattice string
}

// DefaultConfig is a reasonable fuzzing configuration.
func DefaultConfig() Config {
	return Config{MaxDepth: 3, MaxStmts: 5, NumFields: 3, WithActions: true}
}

// withDefaults fills unset size knobs so a Config that only names a
// lattice still generates sensible programs. It never changes a field the
// caller set.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxDepth <= 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = d.MaxStmts
	}
	if c.NumFields <= 0 {
		c.NumFields = d.NumFields
	}
	return c
}

// ResolveLattice resolves the Lattice spec ("" = two-point). The error is
// the lattice package's, naming the accepted specs.
func (c Config) ResolveLattice() (lattice.Lattice, error) {
	return lattice.ByName(c.Lattice)
}

// Validate rejects configurations Random cannot generate from — today
// that is exactly an unresolvable Lattice spec. Campaign entry points
// (difftest.Run, campaign.Run, p4fuzz) call this so a bad -lattice flag is
// a usage error, not a panic mid-campaign.
func (c Config) Validate() error {
	_, err := c.ResolveLattice()
	return err
}

// Random returns a random program annotated against cfg.Lattice (the
// two-point lattice when unset). The program is syntactically valid and
// base-well-typed but may or may not typecheck under the IFC system — that
// is the point: the soundness property test accepts the programs the
// checker accepts and verifies non-interference on them, and additionally
// checks that programs the checker rejects are rejected for a flow-related
// rule.
//
// Random panics on an unresolvable cfg.Lattice; use Config.Validate at
// configuration boundaries. For the two-point lattice the emitted program
// is byte-identical to what earlier (pre-Lattice) versions generated from
// the same rng, so recorded regen seeds stay valid.
func Random(rng *rand.Rand, cfg Config) string {
	cfg = cfg.withDefaults()
	lat, err := cfg.ResolveLattice()
	if err != nil {
		panic(fmt.Sprintf("gen: %v (validate the Config first)", err))
	}
	if lat.Name() != "two-point" {
		return randomLattice(rng, cfg, lat)
	}
	g := &generator{rng: rng, cfg: cfg}
	var b strings.Builder
	b.WriteString("header data_t {\n")
	for i := 0; i < cfg.NumFields; i++ {
		fmt.Fprintf(&b, "    <bit<8>, low> lo%d;\n", i)
		fmt.Fprintf(&b, "    <bit<8>, high> hi%d;\n", i)
	}
	b.WriteString("    <bool, low> blo;\n    <bool, high> bhi;\n")
	b.WriteString("}\nstruct headers { data_t d; }\n")
	b.WriteString("control Rand_Ingress(inout headers hdr, inout standard_metadata_t standard_metadata) {\n")
	if cfg.WithActions {
		// Action bodies must not call actions (P4 actions cannot call
		// actions, and forward references would be undeclared anyway).
		bodyCfg := cfg
		bodyCfg.WithActions = false
		bodyGen := &generator{rng: rng, cfg: bodyCfg}
		for i := 0; i < 2; i++ {
			fmt.Fprintf(&b, "    action act%d() {\n", i)
			bodyGen.block(&b, 2, 2, false)
			b.WriteString("    }\n")
		}
	}
	b.WriteString("    apply {\n")
	g.block(&b, cfg.MaxDepth, cfg.MaxStmts, false)
	b.WriteString("    }\n}\n")
	return b.String()
}

type generator struct {
	rng *rand.Rand
	cfg Config
}

func (g *generator) field(kind string) string {
	switch kind {
	case "lo":
		return fmt.Sprintf("hdr.d.lo%d", g.rng.Intn(g.cfg.NumFields))
	case "hi":
		return fmt.Sprintf("hdr.d.hi%d", g.rng.Intn(g.cfg.NumFields))
	default:
		if g.rng.Intn(2) == 0 {
			return g.field("lo")
		}
		return g.field("hi")
	}
}

// bitExpr returns a random bit<8> expression. kind "lo" restricts operands
// to low fields (so the result is low by construction); "" allows any.
func (g *generator) bitExpr(depth int, kind string) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			// Width-prefixed so bitwise operators are defined even on
			// literal-literal operands.
			return fmt.Sprintf("8w%d", g.rng.Intn(256))
		default:
			return g.field(kind)
		}
	}
	ops := []string{"+", "-", "&", "|", "^"}
	return fmt.Sprintf("(%s %s %s)",
		g.bitExpr(depth-1, kind), ops[g.rng.Intn(len(ops))], g.bitExpr(depth-1, kind))
}

// boolExpr returns a random bool expression at the given kind.
func (g *generator) boolExpr(depth int, kind string) string {
	switch g.rng.Intn(4) {
	case 0:
		if kind == "lo" || g.rng.Intn(2) == 0 {
			return "hdr.d.blo"
		}
		return "hdr.d.bhi"
	case 1:
		return fmt.Sprintf("(%s == %s)", g.bitExpr(depth-1, kind), g.bitExpr(depth-1, kind))
	case 2:
		return fmt.Sprintf("(%s > %s)", g.bitExpr(depth-1, kind), g.bitExpr(depth-1, kind))
	default:
		if depth <= 0 {
			if kind == "lo" {
				return "hdr.d.blo"
			}
			return "hdr.d.bhi"
		}
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1, kind), g.boolExpr(depth-1, kind))
	}
}

// chooseKinds picks an (lhs, rhs) label pair. Most draws respect the
// lattice (rhs ⊑ lhs) so a useful fraction of whole programs typecheck;
// a minority deliberately violate it so rejection paths are exercised too.
func (g *generator) chooseKinds(ctxHigh bool) (lhs, rhs string) {
	if ctxHigh {
		// Under a high guard only high writes can be accepted; still
		// emit an occasional low write to probe implicit-flow rejection.
		if g.rng.Intn(10) == 0 {
			return "lo", "lo"
		}
		return "hi", ""
	}
	switch g.rng.Intn(10) {
	case 0: // explicit-flow violation candidate
		return "lo", ""
	case 1, 2, 3:
		return "lo", "lo"
	default:
		return "hi", ""
	}
}

func (g *generator) block(b *strings.Builder, depth, maxStmts int, ctxHigh bool) {
	n := 1 + g.rng.Intn(maxStmts)
	for i := 0; i < n; i++ {
		g.stmt(b, depth, ctxHigh)
	}
}

func (g *generator) stmt(b *strings.Builder, depth int, ctxHigh bool) {
	choice := g.rng.Intn(10)
	switch {
	case choice < 5 || depth <= 0: // assignment
		lhs, rhs := g.chooseKinds(ctxHigh)
		fmt.Fprintf(b, "        %s = %s;\n", g.field(lhs), g.bitExpr(2, rhs))
	case choice < 6: // boolean assignment
		lhs, rhs := g.chooseKinds(ctxHigh)
		if lhs == "lo" {
			fmt.Fprintf(b, "        hdr.d.blo = %s;\n", g.boolExpr(1, rhs))
		} else {
			fmt.Fprintf(b, "        hdr.d.bhi = %s;\n", g.boolExpr(1, rhs))
		}
	case choice < 9: // conditional
		guardKind := "lo"
		if g.rng.Intn(4) == 0 {
			guardKind = ""
		}
		high := ctxHigh || guardKind != "lo"
		fmt.Fprintf(b, "        if (%s) {\n", g.boolExpr(2, guardKind))
		g.block(b, depth-1, 2, high)
		if g.rng.Intn(2) == 0 {
			b.WriteString("        } else {\n")
			g.block(b, depth-1, 2, high)
		}
		b.WriteString("        }\n")
	default: // action call
		if g.cfg.WithActions && !ctxHigh {
			fmt.Fprintf(b, "        act%d();\n", g.rng.Intn(2))
		} else {
			lhs, rhs := g.chooseKinds(ctxHigh)
			fmt.Fprintf(b, "        %s = %s;\n", g.field(lhs), g.bitExpr(1, rhs))
		}
	}
}
