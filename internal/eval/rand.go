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
//
// Seed builds no word. Draw k (from 1) reads words 334−k and 607−k, so the
// first 334 draws walk down two runs of untouched seeded words: [0, 334)
// and [334, 607). Draws build the next warmChunk words of both runs when
// they step below cold, and every word is built before it is first read.
// A short stream, such as an NI round of a few trials, builds a fraction of
// the state.
type Source struct {
	tap, feed int
	// cold is the lowest built word of the first run: words [0, cold) of
	// the first run and [334, cold+srcTap) of the second are unbuilt.
	cold int
	x0   uint64 // the reduced seed the unbuilt words are built from
	vec  [srcLen]int64
}

// warmChunk is how many words of each run a draw builds when it reaches
// unbuilt state.
const warmChunk = 32

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
	words.build(0, srcLen)
	words.cold = 0
	s := words
	ref := rand.NewSource(1).(rand.Source64)
	for range srcLen {
		s.next() // advances tap and feed; the slot is overwritten
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
	s.x0 = uint64(seed)
	s.cold = srcLen - srcTap
}

// build seeds state words [lo, hi).
func (s *Source) build(lo, hi int) {
	x0 := s.x0
	for i := lo; i < hi; i++ {
		p := seedPow[3*i : 3*i+3 : 3*i+3]
		u := mod31(uint64(p[0])*x0)<<40 ^ mod31(uint64(p[1])*x0)<<20 ^ mod31(uint64(p[2])*x0)
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (s *Source) Uint64() uint64 {
	s.ready()
	return s.next()
}

// Int63 returns the next word with its top bit cleared.
func (s *Source) Int63() int64 {
	s.ready()
	return s.int63()
}

// ready builds the words the next draw reads if they are unbuilt. It
// inlines, so a draw over built state pays one comparison; every draw
// method calls it before each next.
func (s *Source) ready() {
	if s.feed <= s.cold {
		s.warm()
	}
}

// warm runs when the next draw's feed word, feed−1, is below cold. Once
// cold is 0 every word is built (by draw 334) and feed is about to wrap.
// Otherwise it builds the next chunk of the first run and the second
// run's words at the same draws, tap = feed + srcTap, which are the ones
// above 333.
func (s *Source) warm() {
	if s.cold == 0 {
		return
	}
	lo := max(s.cold-warmChunk, 0)
	s.build(lo, s.cold)
	s.build(max(lo+srcTap, srcLen-srcTap), s.cold+srcTap)
	s.cold = lo
}

// next steps the generator over built state (see ready).
func (s *Source) next() uint64 {
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

func (s *Source) int63() int64 { return int64(s.next() &^ (1 << 63)) }

func (s *Source) int31() int32 { return int32(s.int63() >> 32) }

// BatchRand is a drop-in replacement for rand.New(rand.NewSource(seed))
// that calls its embedded Source directly instead of through rand.Rand's
// interface. It produces the *bit-identical* stream to math/rand for
// every method it implements — callers that recorded seeds against the
// stock generator (the fuzz corpus, NI trial classifications) replay
// unchanged. Seed reseeds it in place without allocating.
type BatchRand struct {
	Source
}

// Uint64 is Source.Uint64, declared again so that a call through the Rng
// interface runs it directly rather than through the promoted method's
// wrapper.
func (r *BatchRand) Uint64() uint64 {
	r.ready()
	return r.next()
}

// Int31 mirrors rand.Rand.Int31.
func (r *BatchRand) Int31() int32 {
	r.ready()
	return r.int31()
}

// Int63n mirrors rand.Rand.Int63n, including its power-of-two fast path
// and rejection sampling, so the consumed word count matches exactly.
func (r *BatchRand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	r.ready()
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		r.ready()
		v = r.int63()
	}
	return v % n
}

// Int31n mirrors rand.Rand.Int31n.
func (r *BatchRand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	r.ready()
	if n&(n-1) == 0 {
		return r.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		r.ready()
		v = r.int31()
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
