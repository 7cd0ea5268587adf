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
	// boundary). Random emits one field group per lattice element and
	// draws label pairs against the configured order.
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
// (campaign.Run, p4fuzz) call this so a bad -lattice flag is
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
// The text is in ast.Print's layout: printing its parse gives it back
// unchanged. An rng state and Config always yield the same program, so a
// recorded regen seed regenerates its finding's program (text stored by
// older versions may differ in layout, never in its parse).
//
// Random panics on an unresolvable cfg.Lattice; use Config.Validate at
// configuration boundaries.
func Random(rng *rand.Rand, cfg Config) string {
	cfg = cfg.withDefaults()
	lat, err := cfg.ResolveLattice()
	if err != nil {
		panic("gen: " + err.Error() + " (validate the Config first)")
	}
	return newEmitter(rng, cfg, lat).program()
}
