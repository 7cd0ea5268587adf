// Random's emitter. It writes a program straight into ast.Print's layout:
// a single labelled header with one field group per lattice element,
// optional actions, and a random apply block:
//
//	header data_t {
//	    <bit<8>, E0> f0_0; ... f0_{NumFields-1};
//	    ...
//	    <bool, E0> b0; ...
//	}
//
// Label pairs are drawn against the configured order: most assignments
// respect it (rhs ⊑ lhs and pc ⊑ lhs, so a useful fraction of programs
// typecheck), a minority deliberately violate it so every rejection rule
// is exercised at every lattice height — including flows between
// incomparable elements, which two-point programs cannot express.
//
// Two-point programs keep the names and draws of the emitter that
// predates lattice support: fields lo<i>, hi<i>, blo and bhi, its own
// label-pair distribution, and no draw where only one label fits. So
// their regen seeds stay valid.
package gen

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lattice"
)

// The two-point lattice's element indices, and its fields' names.
const lo, hi = 0, 1

var (
	twoPointFields = [2]string{"hdr.d.lo", "hdr.d.hi"}
	twoPointBools  = [2]string{"hdr.d.blo", "hdr.d.bhi"}
)

// bitOps are the binary operators of generated bit<8> expressions.
var bitOps = [...]string{"+", "-", "&", "|", "^"}

// emitter writes one random program into b. Labels are element indices;
// the element order is precomputed as down- and up-sets and a join
// table, so label draws are index arithmetic.
type emitter struct {
	rng      *rand.Rand
	cfg      Config
	twoPoint bool
	elem     []lattice.Label
	down     [][]int // down[i]: the element indices ⊑ elem[i], in order
	up       [][]int // up[i]: the element indices ⊒ elem[i], in order
	join     [][]int // join[i][j]: the index of elem[i] ⊔ elem[j]
	bot      int
	b        strings.Builder
	nest     int // the ifs around the statement being written
}

func newEmitter(rng *rand.Rand, cfg Config, lat lattice.Lattice) *emitter {
	elem := lat.Elements()
	n := len(elem)
	e := &emitter{rng: rng, cfg: cfg, twoPoint: lat.Name() == "two-point", elem: elem,
		down: make([][]int, n), up: make([][]int, n), join: make([][]int, n)}
	for i := range elem {
		e.down[i], e.up[i], e.join[i] = make([]int, 0, n), make([]int, 0, n), make([]int, n)
		for j := range elem {
			if lat.Leq(elem[j], elem[i]) {
				e.down[i] = append(e.down[i], j)
			}
			if lat.Leq(elem[i], elem[j]) {
				e.up[i] = append(e.up[i], j)
			}
			name := lat.Join(elem[i], elem[j]).Name()
			e.join[i][j] = slices.IndexFunc(elem, func(l lattice.Label) bool { return l.Name() == name })
		}
		if elem[i] == lat.Bottom() {
			e.bot = i
		}
	}
	return e
}

func (e *emitter) str(s string) { e.b.WriteString(s) }

func (e *emitter) num(n int) {
	var buf [20]byte
	e.b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

// indent writes the indentation of a statement: two levels for the
// control and its apply block or action, then one per enclosing if.
func (e *emitter) indent() {
	for i := 0; i < e.nest+2; i++ {
		e.str("    ")
	}
}

// program writes the whole program and returns its text.
func (e *emitter) program() string {
	e.b.Grow(1024) // a DefaultConfig program is half a KB to a few KB
	e.str("header data_t {\n")
	if e.twoPoint {
		for i := 0; i < e.cfg.NumFields; i++ {
			e.str("    <bit<8>, low> lo")
			e.num(i)
			e.str(";\n    <bit<8>, high> hi")
			e.num(i)
			e.str(";\n")
		}
		e.str("    <bool, low> blo;\n    <bool, high> bhi;\n")
	} else {
		for i, l := range e.elem {
			for j := 0; j < e.cfg.NumFields; j++ {
				e.str("    <bit<8>, ")
				e.str(l.Name())
				e.str("> f")
				e.num(i)
				e.str("_")
				e.num(j)
				e.str(";\n")
			}
		}
		for i, l := range e.elem {
			e.str("    <bool, ")
			e.str(l.Name())
			e.str("> b")
			e.num(i)
			e.str(";\n")
		}
	}
	e.str("}\nstruct headers {\n    data_t d;\n}\n")
	e.str("control Rand_Ingress(inout headers hdr, inout standard_metadata_t standard_metadata) {\n")
	if e.cfg.WithActions {
		// Action bodies are generated at pc ⊥ and never call actions
		// (P4 actions cannot call actions, and forward references would
		// be undeclared anyway).
		e.cfg.WithActions = false
		for i := 0; i < 2; i++ {
			e.str("    action act")
			e.num(i)
			e.str("() {\n")
			e.block(2, 2, e.bot)
			e.str("    }\n")
		}
		e.cfg.WithActions = true
	}
	e.str("    apply {\n")
	e.block(e.cfg.MaxDepth, e.cfg.MaxStmts, e.bot)
	e.str("    }\n}\n")
	return e.b.String()
}

// pick draws one element index of set.
func (e *emitter) pick(set []int) int {
	if e.twoPoint && len(set) == 1 {
		return set[0]
	}
	return set[e.rng.Intn(len(set))]
}

// field writes a random bit field at exactly element l.
func (e *emitter) field(l int) {
	if e.twoPoint {
		e.str(twoPointFields[l])
	} else {
		e.str("hdr.d.f")
		e.num(l)
		e.str("_")
	}
	e.num(e.rng.Intn(e.cfg.NumFields))
}

// boolField writes the bool field at element l.
func (e *emitter) boolField(l int) {
	if e.twoPoint {
		e.str(twoPointBools[l])
		return
	}
	e.str("hdr.d.b")
	e.num(l)
}

// bitExpr writes a random bit<8> expression whose label is ⊑ elem[max]
// (operands are fields from max's down-set, or literals).
func (e *emitter) bitExpr(depth, max int) {
	if depth <= 0 || e.rng.Intn(3) == 0 {
		if e.rng.Intn(3) == 0 {
			// Width-prefixed so bitwise operators are defined even on
			// literal-literal operands.
			e.str("8w")
			e.num(e.rng.Intn(256))
		} else {
			e.field(e.pick(e.down[max]))
		}
		return
	}
	e.str("(")
	e.bitExpr(depth-1, max)
	e.str(" ")
	e.str(bitOps[e.rng.Intn(len(bitOps))])
	e.str(" ")
	e.bitExpr(depth-1, max)
	e.str(")")
}

// boolExpr writes a random bool expression whose label is ⊑ elem[max].
func (e *emitter) boolExpr(depth, max int) {
	switch e.rng.Intn(4) {
	case 0:
		e.boolField(e.pick(e.down[max]))
	case 1:
		e.compare(depth, max, " == ")
	case 2:
		e.compare(depth, max, " > ")
	default:
		switch {
		case depth > 0:
			e.str("(")
			e.boolExpr(depth-1, max)
			e.str(" && ")
			e.boolExpr(depth-1, max)
			e.str(")")
		case e.twoPoint:
			e.boolField(max)
		default:
			e.boolField(e.pick(e.down[max]))
		}
	}
}

// compare writes a parenthesized comparison of two bit<8> expressions.
func (e *emitter) compare(depth, max int, op string) {
	e.str("(")
	e.bitExpr(depth-1, max)
	e.str(op)
	e.bitExpr(depth-1, max)
	e.str(")")
}

// target picks an assignment's (lhs element, rhs label bound) under
// context pc. Most draws typecheck by construction: pc ⊑ lhs and the rhs
// bound is lhs itself. A minority violate the order on purpose — on a
// general lattice by picking both ends freely, probing explicit flows,
// implicit flows, and incomparable-element flows alike.
func (e *emitter) target(pc int) (lhs, rhsMax int) {
	switch {
	case !e.twoPoint:
		if e.rng.Intn(8) == 0 {
			return e.rng.Intn(len(e.elem)), e.rng.Intn(len(e.elem))
		}
		lhs = e.pick(e.up[pc])
		return lhs, lhs
	case pc == hi:
		// Under a high guard only high writes can be accepted; still
		// emit an occasional low write to probe implicit-flow rejection.
		if e.rng.Intn(10) == 0 {
			return lo, lo
		}
		return hi, hi
	}
	switch e.rng.Intn(10) {
	case 0: // explicit-flow violation candidate
		return lo, hi
	case 1, 2, 3:
		return lo, lo
	default:
		return hi, hi
	}
}

func (e *emitter) block(depth, maxStmts, pc int) {
	n := 1 + e.rng.Intn(maxStmts)
	for i := 0; i < n; i++ {
		e.stmt(depth, pc)
	}
}

// assign writes one bit assignment, its ends drawn by target.
func (e *emitter) assign(exprDepth, pc int) {
	lhs, rhsMax := e.target(pc)
	e.field(lhs)
	e.str(" = ")
	e.bitExpr(exprDepth, rhsMax)
	e.str(";\n")
}

func (e *emitter) stmt(depth, pc int) {
	e.indent()
	choice := e.rng.Intn(10)
	switch {
	case choice < 5 || depth <= 0: // bit assignment
		e.assign(2, pc)
	case choice < 6: // boolean assignment
		lhs, rhsMax := e.target(pc)
		e.boolField(lhs)
		e.str(" = ")
		e.boolExpr(1, rhsMax)
		e.str(";\n")
	case choice < 9: // conditional
		guard := e.bot
		if e.rng.Intn(4) == 0 {
			if e.twoPoint {
				guard = hi
			} else {
				guard = e.rng.Intn(len(e.elem))
			}
		}
		e.str("if (")
		e.boolExpr(2, guard)
		e.str(") {\n")
		inner := e.join[pc][guard]
		e.nest++
		e.block(depth-1, 2, inner)
		e.nest--
		if e.rng.Intn(2) == 0 {
			e.indent()
			e.str("} else {\n")
			e.nest++
			e.block(depth-1, 2, inner)
			e.nest--
		}
		e.indent()
		e.str("}\n")
	default: // action call (only at pc ⊥, where any body is admissible)
		if e.cfg.WithActions && pc == e.bot {
			e.str("act")
			e.num(e.rng.Intn(2))
			e.str("();\n")
		} else {
			e.assign(1, pc)
		}
	}
}
