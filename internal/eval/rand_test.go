package eval

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds at the edges of math/rand's seed reduction:
// zero (replaced by 89482311), the values congruent to zero modulo
// 2³¹−1, that replacement itself, and the int64 extremes.
var edgeSeeds = []int64{0, 1, -1, 42, -7, 1 << 40,
	math.MaxInt32, -math.MaxInt32, 2 * math.MaxInt32, 89482311,
	math.MinInt64, math.MaxInt64}

// TestBatchRandMatchesMathRand proves BatchRand produces the bit-identical
// stream to rand.New(rand.NewSource(seed)) under an adversarial interleaving
// of every method the NI harness draws through. Recorded corpus findings
// and replay gates classify by values derived from this stream, so exact
// equality is required, not just distributional equivalence.
func TestBatchRandMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := new(BatchRand)
		got.Seed(seed)
		pick := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
		for i := 0; i < 20000; i++ {
			switch pick.Intn(6) {
			case 0:
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, a, b)
				}
			case 1:
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, a, b)
				}
			case 2:
				n := int64(pick.Intn(1<<24) + 1)
				if a, b := ref.Int63n(n), got.Int63n(n); a != b {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d != %d", seed, i, n, a, b)
				}
			case 3:
				n := int32(pick.Intn(1<<20) + 1)
				if a, b := ref.Int31n(n), got.Int31n(n); a != b {
					t.Fatalf("seed %d draw %d: Int31n(%d) %d != %d", seed, i, n, a, b)
				}
			case 4:
				n := pick.Intn(257) + 1 // crosses the power-of-two fast path
				if a, b := ref.Intn(n), got.Intn(n); a != b {
					t.Fatalf("seed %d draw %d: Intn(%d) %d != %d", seed, i, n, a, b)
				}
			default:
				// The Int63n(1<<20) draw Random uses for Int fields.
				if a, b := ref.Int63n(1<<20), got.Int63n(1<<20); a != b {
					t.Fatalf("seed %d draw %d: Int63n(2^20) %d != %d", seed, i, a, b)
				}
			}
		}
	}
}

// TestSourceMatchesMathRand proves Source's direct seeding reaches the
// state rand.NewSource's sequential seeding reaches, for random and edge
// seeds, fresh or reseeded in place. 1,500 words cover more than two full
// cycles of the 607-word lag, so every state word feeds the comparison.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(2020))
	for len(seeds) < 2020 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var reused Source
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		fresh := NewSource(seed)
		reused.Seed(seed)
		for i := 0; i < draws; i++ {
			want := ref.Uint64()
			if got := fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: NewSource %#x, want %#x", seed, i, got, want)
			}
			if got := reused.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: reseeded Source %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// TestSourceUnderRandRand: wrapped in rand.New, Source must give every
// rand.Rand method generation, mutation and the seed pool call the stock
// source's values, since rand.Rand reads only Int63 and Uint64.
func TestSourceUnderRandRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		for i := 0; i < 2000; i++ {
			n := i%300 + 1
			if a, b := ref.Float64(), got.Float64(); a != b {
				t.Fatalf("seed %d step %d: Float64 %v != %v", seed, i, a, b)
			}
			if a, b := ref.Intn(n), got.Intn(n); a != b {
				t.Fatalf("seed %d step %d: Intn(%d) %d != %d", seed, i, n, a, b)
			}
			if a, b := ref.Int63n(int64(n)<<33+1), got.Int63n(int64(n)<<33+1); a != b {
				t.Fatalf("seed %d step %d: Int63n %d != %d", seed, i, a, b)
			}
			if i%50 == 0 {
				pa, pb := ref.Perm(n%40), got.Perm(n%40)
				for j := range pa {
					if pa[j] != pb[j] {
						t.Fatalf("seed %d step %d: Perm %v != %v", seed, i, pa, pb)
					}
				}
				sa, sb := ref.Perm(n%40), got.Perm(n%40)
				ref.Shuffle(len(sa), func(x, y int) { sa[x], sa[y] = sa[y], sa[x] })
				got.Shuffle(len(sb), func(x, y int) { sb[x], sb[y] = sb[y], sb[x] })
				for j := range sa {
					if sa[j] != sb[j] {
						t.Fatalf("seed %d step %d: Shuffle %v != %v", seed, i, sa, sb)
					}
				}
			}
		}
	}
}

// TestBatchRandReseedAllocs: a long-lived BatchRand serves every NI round
// of an experiment, so reseeding it and drawing from it must not allocate.
func TestBatchRandReseedAllocs(t *testing.T) {
	var r BatchRand
	seed := int64(0)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		sink += r.Uint64() + uint64(r.Intn(7)) + uint64(r.Int63n(1<<20))
	})
	if allocs != 0 {
		t.Errorf("reseed and draw allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

var seedSink rand.Source

// BenchmarkSeed compares seeding math/rand's source, a fresh Source and a
// Source reseeded in place.
func BenchmarkSeed(b *testing.B) {
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedSink = rand.NewSource(int64(i))
		}
	})
	b.Run("NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedSink = NewSource(int64(i))
		}
	})
	b.Run("Reseed", func(b *testing.B) {
		b.ReportAllocs()
		var s Source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
