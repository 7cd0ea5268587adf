package parser_test

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/progs"
)

// TestParseAllocs bounds what parsing a case study allocates: at most one
// allocation per six source bytes, about one per node. Tokens are scanned
// in place and statement and argument lists are copied out at their exact
// length, so an allocation per token (about one per four bytes) would
// break the bound.
func TestParseAllocs(t *testing.T) {
	for _, p := range progs.All() {
		src := p.Source(progs.Fixed)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := parser.Parse("alloc.p4", src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes, %.0f allocs per parse", p.Name, len(src), allocs)
		if max := float64(len(src) / 6); allocs > max {
			t.Errorf("parsing %s (%d bytes) allocates %.0f times, want at most %.0f", p.Name, len(src), allocs, max)
		}
	}
}
