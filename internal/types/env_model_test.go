package types

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/lattice"
)

// refEnv is the typing context as a chain of per-scope maps, each child
// falling back to its parent. It is the reference the flat Env is checked
// against.
type refEnv struct {
	parent *refEnv
	vars   map[string]SecType
}

func newRefEnv() *refEnv { return &refEnv{vars: map[string]SecType{}} }

func (e *refEnv) child() *refEnv { return &refEnv{parent: e, vars: map[string]SecType{}} }

func (e *refEnv) bind(name string, t SecType) { e.vars[name] = t }

func (e *refEnv) lookup(name string) (SecType, bool) {
	for s := e; s != nil; s = s.parent {
		if t, ok := s.vars[name]; ok {
			return t, true
		}
	}
	return SecType{}, false
}

func (e *refEnv) inCurrentScope(name string) bool {
	_, ok := e.vars[name]
	return ok
}

// TestEnvMatchesReference drives Env and refEnv through the same random
// Open/Bind/Close/Lookup/InCurrentScope sequences and requires every
// answer to agree. Names come from a small pool, so bindings repeat
// within a scope and shadow across scopes; bursts of binds push the
// stack past indexAt and closes pull it back under.
func TestEnvMatchesReference(t *testing.T) {
	lat := lattice.TwoPoint()
	labels := []lattice.Label{lat.Bottom(), lat.Top()}
	typesPool := []Type{Bool{}, Int{}, Bit{8}, Bit{16}, Unit{}}
	const sequences = 10000
	crossedUp, crossedDown := 0, 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		names := make([]string, 1+rng.Intn(40))
		for i := range names {
			names[i] = "v" + strconv.Itoa(i)
		}
		e, ref := NewEnv(), newRefEnv()
		var outers []int
		above := false
		for step, steps := 0, 20+rng.Intn(300); step < steps; step++ {
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(10); {
			case op < 4:
				n := 1
				if rng.Intn(8) == 0 {
					n = 1 + rng.Intn(2*indexAt)
				}
				for ; n > 0; n-- {
					st := SecType{T: typesPool[rng.Intn(len(typesPool))], L: labels[rng.Intn(2)]}
					e.Bind(name, st)
					ref.bind(name, st)
					name = names[rng.Intn(len(names))]
				}
			case op < 6:
				outers = append(outers, e.Open())
				ref = ref.child()
			case op < 7:
				if len(outers) == 0 {
					continue
				}
				e.Close(outers[len(outers)-1])
				outers = outers[:len(outers)-1]
				ref = ref.parent
			case op < 9:
				got, gotOK := e.Lookup(name)
				want, wantOK := ref.lookup(name)
				if gotOK != wantOK || (gotOK && !SecEqual(got, want)) {
					t.Fatalf("seq %d step %d: Lookup(%s) = %v, %v; reference %v, %v", seq, step, name, got, gotOK, want, wantOK)
				}
			default:
				if got, want := e.InCurrentScope(name), ref.inCurrentScope(name); got != want {
					t.Fatalf("seq %d step %d: InCurrentScope(%s) = %v; reference %v", seq, step, name, got, want)
				}
			}
			if now := len(e.binds) > indexAt; now != above {
				above = now
				if now {
					crossedUp++
				} else {
					crossedDown++
				}
			}
		}
		// Every name, at the end, in every still-open scope and the root.
		for {
			for _, name := range names {
				got, gotOK := e.Lookup(name)
				want, wantOK := ref.lookup(name)
				if gotOK != wantOK || (gotOK && !SecEqual(got, want)) {
					t.Fatalf("seq %d unwind: Lookup(%s) = %v, %v; reference %v, %v", seq, name, got, gotOK, want, wantOK)
				}
				if e.InCurrentScope(name) != ref.inCurrentScope(name) {
					t.Fatalf("seq %d unwind: InCurrentScope(%s) disagrees", seq, name)
				}
			}
			if len(outers) == 0 {
				break
			}
			e.Close(outers[len(outers)-1])
			outers = outers[:len(outers)-1]
			ref = ref.parent
		}
	}
	t.Logf("%d sequences: %d crossed the index threshold upward, %d back down", sequences, crossedUp, crossedDown)
	if crossedUp < sequences/20 || crossedDown < sequences/50 {
		t.Fatalf("too few threshold crossings (up %d, down %d) to exercise the index", crossedUp, crossedDown)
	}
}
