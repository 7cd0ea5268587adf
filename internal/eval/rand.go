package eval

import (
	"math/rand"

	"repro/internal/types"
)

// Rng is the draw interface the random-value generator needs. Both
// *math/rand.Rand and *BatchRand satisfy it.
type Rng interface {
	Intn(n int) int
	Int63n(n int64) int64
	Uint64() uint64
}

// BatchRand is a drop-in replacement for rand.New(rand.NewSource(seed))
// that prefetches source words in batches instead of calling into the
// source per draw. It produces the *bit-identical* stream to math/rand for
// every method it implements — callers that recorded seeds against the
// stock generator (the fuzz corpus, NI trial classifications) replay
// unchanged. That exactness is what lets the NI hot path batch rng draws
// per trial without invalidating any persisted finding.
type BatchRand struct {
	s64 rand.Source64
	src rand.Source // fallback when the source is not a Source64
	buf [256]uint64
	n   int
	i   int
}

// NewBatchRand returns a batching generator seeded like
// rand.New(rand.NewSource(seed)).
func NewBatchRand(seed int64) *BatchRand {
	src := rand.NewSource(seed)
	r := &BatchRand{src: src}
	if s64, ok := src.(rand.Source64); ok {
		r.s64 = s64
	}
	return r
}

func (r *BatchRand) word() uint64 {
	if r.i >= r.n {
		for j := range r.buf {
			r.buf[j] = r.s64.Uint64()
		}
		r.n, r.i = len(r.buf), 0
	}
	w := r.buf[r.i]
	r.i++
	return w
}

// Uint64 mirrors rand.Rand.Uint64.
func (r *BatchRand) Uint64() uint64 {
	if r.s64 == nil {
		return uint64(r.src.Int63())>>31 | uint64(r.src.Int63())<<32
	}
	return r.word()
}

// Int63 mirrors rand.Rand.Int63.
func (r *BatchRand) Int63() int64 {
	if r.s64 == nil {
		return r.src.Int63()
	}
	return int64(r.word() &^ (1 << 63))
}

// Int31 mirrors rand.Rand.Int31.
func (r *BatchRand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n mirrors rand.Rand.Int63n, including its power-of-two fast path
// and rejection sampling, so the consumed word count matches exactly.
func (r *BatchRand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n mirrors rand.Rand.Int31n.
func (r *BatchRand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn mirrors rand.Rand.Intn.
func (r *BatchRand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// RandomFrom is Random generalized over the draw source, so the NI harness
// can feed it a BatchRand. The draw order per type is identical to Random.
func RandomFrom(t types.Type, r Rng) Value {
	switch t := t.(type) {
	case types.Bool:
		return BoolVal(r.Intn(2) == 1)
	case types.Int:
		return IntVal(r.Int63n(1 << 20))
	case types.Bit:
		return BoxBit(t.W, r.Uint64())
	case types.Unit:
		return UnitVal{}
	case *types.Record:
		fs := make([]NamedValue, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = NamedValue{f.Name, RandomFrom(f.Type.T, r)}
		}
		return &RecordVal{fs}
	case *types.Header:
		fs := make([]NamedValue, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = NamedValue{f.Name, RandomFrom(f.Type.T, r)}
		}
		return &HeaderVal{Valid: true, Fields: fs}
	case *types.Stack:
		es := make([]Value, t.Size)
		for i := range es {
			es[i] = RandomFrom(t.Elem.T, r)
		}
		return &StackVal{es}
	case *types.MatchKind:
		if len(t.Members) > 0 {
			return MatchKindVal(t.Members[r.Intn(len(t.Members))])
		}
		return MatchKindVal("exact")
	default:
		return UnitVal{}
	}
}
