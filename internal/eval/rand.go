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

const (
	srcLen = 607 // words of lagged Fibonacci state
	srcTap = 273 // the feedback tap's lag

	seedMod = 1<<31 - 1 // the Mersenne prime 2³¹−1, the seeding LCG's modulus
	seedMul = 48271     // the seeding LCG's multiplier
	seedLag = 21        // state word 0's first LCG term is x_21
)

var (
	// seedPow[n] is seedMul^(seedLag+n) mod seedMod: it takes the seed x₀
	// straight to x_{seedLag+n}, the n-th LCG term Seed consumes.
	seedPow [3 * srcLen]uint32
	// cooked is math/rand's fixed seeding table, XORed into every seeded
	// state word.
	cooked [srcLen]int64
)

// Source is math/rand's additive lagged Fibonacci generator (607 words,
// tap 273) with the identical output for every seed; as a rand.Source64,
// rand.New(src) draws exactly what rand.New(rand.NewSource(seed)) draws.
// Only seeding differs: state word i is built from the terms x_{21+3i},
// x_{22+3i}, x_{23+3i} of the LCG x_{n+1} = 48271·x_n mod (2³¹−1), which
// math/rand reaches by 1,841 sequential steps and Seed computes directly.
type Source struct {
	tap, feed int
	vec       [srcLen]int64
}

func init() {
	p := uint64(1)
	for n := 1; n < seedLag+len(seedPow); n++ {
		p = mod31(p * seedMul)
		if n >= seedLag {
			seedPow[n-seedLag] = uint32(p)
		}
	}
	// Recover the cooked table from math/rand's public stream: 607 draws
	// overwrite every slot once, undoing them in reverse yields the seeded
	// state, and XOR with seed 1's words (cooked is still zero) leaves it.
	var words Source
	words.Seed(1)
	s := words
	ref := rand.NewSource(1).(rand.Source64)
	for range srcLen {
		s.Uint64() // advances tap and feed; the slot is overwritten
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
	for i := range cooked {
		cooked[i] = s.vec[i] ^ words.vec[i]
	}
}

// mod31 reduces v < 2⁶² modulo the Mersenne prime 2³¹−1.
func mod31(v uint64) uint64 {
	v = v&seedMod + v>>31
	if v >= seedMod {
		v -= seedMod
	}
	return v
}

// NewSource returns a Source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for a zero seed
	}
	x0 := uint64(seed)
	for i := range s.vec {
		p := seedPow[3*i : 3*i+3 : 3*i+3]
		u := mod31(uint64(p[0])*x0)<<40 ^ mod31(uint64(p[1])*x0)<<20 ^ mod31(uint64(p[2])*x0)
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next word with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// BatchRand is a drop-in replacement for rand.New(rand.NewSource(seed))
// that calls its embedded Source directly instead of through rand.Rand's
// interface. It produces the *bit-identical* stream to math/rand for
// every method it implements — callers that recorded seeds against the
// stock generator (the fuzz corpus, NI trial classifications) replay
// unchanged. Seed reseeds it in place without allocating.
type BatchRand struct {
	Source
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
