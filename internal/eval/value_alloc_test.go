package eval_test

import (
	"testing"

	"repro/internal/eval"
)

// sinkValue keeps BoxBit's results alive, so the compiler cannot drop the
// conversions TestBoxBitAllocs counts.
var sinkValue eval.Value

// TestBoxBitAllocs: every bit<9> value (standard_metadata's ports, drawn
// on every NI run) and every value below 256 up to bit<16> is served from
// the pre-boxed cache, so boxing one allocates nothing.
func TestBoxBitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, w := range []int{1, 8, 9, 16} {
		n := uint64(256)
		if w <= 9 {
			n = 1 << w
		}
		allocs := testing.AllocsPerRun(10, func() {
			for v := uint64(0); v < n; v++ {
				sinkValue = eval.BoxBit(w, v)
			}
		})
		if allocs != 0 {
			t.Errorf("boxing the %d cached bit<%d> values allocates %.0f times, want 0", n, w, allocs)
		}
	}
}
