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

// Container node kinds.
const (
	nodeRecord = iota
	nodeHeader
	nodeStack
)

// node mirrors a parameter's type shape: leaves index into plan.leaves,
// containers own the one value they allocate on first build and restore
// it in place on every later one (RunIndexed lends containers to the run
// and mutates only their slots; scalar leaves are immutable and shared).
type node struct {
	leaf     int // index into plan.leaves, or -1 for a container
	kind     int
	names    []string // field names for record/header
	children []*node

	rec *eval.RecordVal // the built value, by kind; nil until first build
	hdr *eval.HeaderVal
	stk *eval.StackVal
}

// plan is the flattened enumeration state: one slot per scalar leaf,
// odometers spinning the secret (and, in total mode, public) slots, and
// per-param shape trees rebuilding argument values from the slots.
type plan struct {
	lat lattice.Lattice
	obs lattice.Label

	leaves []leafInfo
	vals   []eval.Value

	params []*node

	secretIdx []int // enumerable secret leaves
	publicIdx []int // enumerable public leaves
	intLeaves []int // int-typed public leaves: drawn randomly per probe
}

// walk flattens one parameter's security type into leaves, classifying
// each scalar leaf secret iff its label does not flow to the observer.
// A non-empty reason marks the whole experiment enumeration-ineligible.
func (p *plan) walk(st types.SecType) (*node, string) {
	if types.IsScalar(st.T) {
		radix, ok := leafRadix(st.T)
		if !ok {
			return nil, ReasonOpaque
		}
		secret := !p.lat.Leq(st.L, p.obs)
		if radix == 0 && secret {
			return nil, ReasonIntTyped
		}
		idx := len(p.leaves)
		p.leaves = append(p.leaves, leafInfo{t: st.T, radix: radix, secret: secret})
		p.vals = append(p.vals, zeroValue(st.T))
		return &node{leaf: idx}, ""
	}
	switch tt := st.T.(type) {
	case *types.Record, *types.Header:
		var fields []types.Field
		kind := nodeRecord
		if h, ok := tt.(*types.Header); ok {
			fields, kind = h.Fields, nodeHeader
		} else {
			fields = tt.(*types.Record).Fields
		}
		n := &node{leaf: -1, kind: kind}
		for _, f := range fields {
			c, reason := p.walk(f.Type)
			if reason != "" {
				return nil, reason
			}
			n.names = append(n.names, f.Name)
			n.children = append(n.children, c)
		}
		return n, ""
	case *types.Stack:
		n := &node{leaf: -1, kind: nodeStack}
		for i := 0; i < tt.Size; i++ {
			c, reason := p.walk(tt.Elem)
			if reason != "" {
				return nil, reason
			}
			n.children = append(n.children, c)
		}
		return n, ""
	default:
		return nil, ReasonOpaque
	}
}

// build returns a parameter's argument tree for one run, set from the
// current leaf slots. Containers are allocated once; every later build
// restores each of their slots (and header validity) in place, undoing
// whatever the previous run wrote, so the sweep allocates nothing per
// assignment.
func (p *plan) build(n *node) eval.Value {
	if n.leaf >= 0 {
		return p.vals[n.leaf]
	}
	switch n.kind {
	case nodeStack:
		if n.stk == nil {
			n.stk = &eval.StackVal{Elems: make([]eval.Value, len(n.children))}
		}
		for i, c := range n.children {
			n.stk.Elems[i] = p.build(c)
		}
		return n.stk
	case nodeHeader:
		if n.hdr == nil {
			n.hdr = &eval.HeaderVal{Fields: namedFields(n.names)}
		}
		n.hdr.Valid = true
		p.restore(n, n.hdr.Fields)
		return n.hdr
	default:
		if n.rec == nil {
			n.rec = &eval.RecordVal{Fields: namedFields(n.names)}
		}
		p.restore(n, n.rec.Fields)
		return n.rec
	}
}

// restore sets every field slot of a record or header node from its
// children.
func (p *plan) restore(n *node, fs []eval.NamedValue) {
	for i, c := range n.children {
		fs[i].Val = p.build(c)
	}
}

func namedFields(names []string) []eval.NamedValue {
	fs := make([]eval.NamedValue, len(names))
	for i, name := range names {
		fs[i].Name = name
	}
	return fs
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
