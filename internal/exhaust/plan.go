package exhaust

import (
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/types"
)

// satInf is the saturated "too many to count" cardinality.
const satInf = ^uint64(0)

// satMul multiplies saturating at satInf, so space sizes compare safely
// against the budget without overflow.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satInf/b {
		return satInf
	}
	return a * b
}

// leafInfo is one scalar leaf of the control's input surface. radix is
// the size of its value domain (satInf for bit widths ≥ 63, 0 for
// int-typed leaves, which have none).
type leafInfo struct {
	t      types.Type
	radix  uint64
	secret bool
}

// slot is one place in the argument trees that the sweep restores before
// every run: a parameter's argument or a container's field or element
// slot. It gets the current value of leaf when leaf ≥ 0, else val, the
// container the plan built for that position.
type slot struct {
	dst  *eval.Value
	leaf int
	val  eval.Value
}

// plan is the flattened enumeration state: one value per scalar leaf,
// odometers spinning the secret (and, in total mode, public) leaves, and
// the argument trees, built once, with a flat list of every slot in them.
type plan struct {
	lat lattice.Lattice
	obs lattice.Label

	leaves []leafInfo
	vals   []eval.Value

	args    []eval.Value      // one argument per parameter, the roots of the trees
	slots   []slot            // every slot of the trees, args included
	headers []*eval.HeaderVal // every header in the trees

	secretIdx []int // enumerable secret leaves
	publicIdx []int // enumerable public leaves
	intLeaves []int // int-typed public leaves: drawn randomly per probe
}

// walk builds the argument tree for one parameter's security type into
// *dst, classifying each scalar leaf secret iff its label does not flow
// to the observer, and records every slot it creates. Containers are
// allocated here, once per sweep, with their declared fields in declared
// order. A non-empty reason marks the whole experiment
// enumeration-ineligible.
func (p *plan) walk(st types.SecType, dst *eval.Value) string {
	if types.IsScalar(st.T) {
		radix, ok := leafRadix(st.T)
		if !ok {
			return ReasonOpaque
		}
		secret := !p.lat.Leq(st.L, p.obs)
		if radix == 0 && secret {
			return ReasonIntTyped
		}
		idx := len(p.leaves)
		p.leaves = append(p.leaves, leafInfo{t: st.T, radix: radix, secret: secret})
		p.vals = append(p.vals, zeroValue(st.T))
		p.slots = append(p.slots, slot{dst: dst, leaf: idx})
		return ""
	}
	switch tt := st.T.(type) {
	case *types.Record:
		rec := &eval.RecordVal{Fields: make([]eval.NamedValue, len(tt.Fields))}
		p.slots = append(p.slots, slot{dst: dst, leaf: -1, val: rec})
		return p.walkFields(tt.Fields, rec.Fields)
	case *types.Header:
		hdr := &eval.HeaderVal{Valid: true, Fields: make([]eval.NamedValue, len(tt.Fields))}
		p.slots = append(p.slots, slot{dst: dst, leaf: -1, val: hdr})
		p.headers = append(p.headers, hdr)
		return p.walkFields(tt.Fields, hdr.Fields)
	case *types.Stack:
		stk := &eval.StackVal{Elems: make([]eval.Value, tt.Size)}
		p.slots = append(p.slots, slot{dst: dst, leaf: -1, val: stk})
		for i := range stk.Elems {
			if reason := p.walk(tt.Elem, &stk.Elems[i]); reason != "" {
				return reason
			}
		}
		return ""
	default:
		return ReasonOpaque
	}
}

// walkFields names a record's or header's field slots and walks each.
func (p *plan) walkFields(fields []types.Field, fs []eval.NamedValue) string {
	for i, f := range fields {
		fs[i].Name = f.Name
		if reason := p.walk(f.Type, &fs[i].Val); reason != "" {
			return reason
		}
	}
	return ""
}

// restore sets every slot of the argument trees from the current leaf
// values and every header valid, undoing whatever the previous run wrote:
// RunIndexed lends the trees to the run, which may replace any leaf, any
// nested container (a whole-struct assignment stores a copy into the
// parent's slot) and any stack element, and clear header validity; it
// never reshapes a container the plan built. Scalar leaves are immutable
// and shared, so the sweep allocates nothing per assignment.
func (p *plan) restore() {
	for i := range p.slots {
		s := &p.slots[i]
		if s.leaf >= 0 {
			*s.dst = p.vals[s.leaf]
		} else {
			*s.dst = s.val
		}
	}
	for _, h := range p.headers {
		h.Valid = true
	}
}

// leafRadix is the size of a scalar type's value domain; 0 means no
// finite domain (int), !ok means no enumerable domain at all.
func leafRadix(t types.Type) (uint64, bool) {
	switch t := t.(type) {
	case types.Bool:
		return 2, true
	case types.Bit:
		if t.W >= 63 {
			return satInf, true
		}
		return uint64(1) << uint(t.W), true
	case types.Unit:
		return 1, true
	case *types.MatchKind:
		if len(t.Members) == 0 {
			return 1, true
		}
		return uint64(len(t.Members)), true
	case types.Int:
		return 0, true
	default:
		return 0, false
	}
}

// leafValue materializes digit d of a scalar leaf's domain; like
// eval.RandomFrom, headers are always valid and match_kinds with no
// members collapse to "exact".
func leafValue(t types.Type, d uint64) eval.Value {
	switch t := t.(type) {
	case types.Bool:
		return eval.BoolVal(d == 1)
	case types.Bit:
		return eval.BoxBit(t.W, d)
	case types.Unit:
		return eval.UnitVal{}
	case *types.MatchKind:
		if len(t.Members) == 0 {
			return eval.MatchKindVal("exact")
		}
		return eval.MatchKindVal(t.Members[d])
	case types.Int:
		return eval.IntVal(int64(d))
	}
	return eval.UnitVal{}
}

// zeroValue is digit 0 of a leaf's domain.
func zeroValue(t types.Type) eval.Value { return leafValue(t, 0) }

// odometer spins a subset of the plan's leaf slots through their full
// cartesian domain, least-significant first. After a full cycle
// (advance returning false) every slot is back at digit 0.
type odometer struct {
	idx    []int
	digits []uint64
}

func newOdometer(p *plan, idx []int) *odometer {
	od := &odometer{idx: idx, digits: make([]uint64, len(idx))}
	od.reset(p)
	return od
}

func (od *odometer) reset(p *plan) {
	for i, li := range od.idx {
		od.digits[i] = 0
		p.vals[li] = zeroValue(p.leaves[li].t)
	}
}

// advance steps to the next assignment, updating only the slots whose
// digits changed; false means the space is exhausted (and reset).
func (od *odometer) advance(p *plan) bool {
	for i, li := range od.idx {
		od.digits[i]++
		if od.digits[i] < p.leaves[li].radix {
			p.vals[li] = leafValue(p.leaves[li].t, od.digits[i])
			return true
		}
		od.digits[i] = 0
		p.vals[li] = zeroValue(p.leaves[li].t)
	}
	return false
}
