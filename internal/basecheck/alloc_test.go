package basecheck_test

import (
	"strings"
	"testing"

	"repro/internal/basecheck"
	"repro/internal/parser"
	"repro/internal/progs"
)

// nestedBlocks returns a control whose apply block wraps one declaration
// and one assignment in n nested blocks.
func nestedBlocks(n int) string {
	return "control C(inout bit<8> x) { apply { " + strings.Repeat("{ ", n) +
		"bit<8> y = x; x = y + 1;" + strings.Repeat(" }", n) + " } }"
}

// TestCheckAllocs bounds what one base check allocates: a case study stays
// under a fixed count, and since opening and closing a scope allocates
// nothing, 32 nested blocks cost no more than one.
func TestCheckAllocs(t *testing.T) {
	for _, p := range progs.All() {
		prog := parser.MustParse(p.FileName(progs.Fixed), p.Source(progs.Fixed))
		allocs := testing.AllocsPerRun(50, func() { basecheck.Check(prog) })
		t.Logf("%s: %.0f allocs per check", p.Name, allocs)
		if max := 48.0; allocs > max {
			t.Errorf("base-checking %s allocates %.0f times, want at most %.0f", p.Name, allocs, max)
		}
	}
	one, deep := parser.MustParse("one.p4", nestedBlocks(1)), parser.MustParse("deep.p4", nestedBlocks(32))
	oneAllocs := testing.AllocsPerRun(50, func() { basecheck.Check(one) })
	deepAllocs := testing.AllocsPerRun(50, func() { basecheck.Check(deep) })
	t.Logf("1 block: %.0f allocs, 32 nested blocks: %.0f", oneAllocs, deepAllocs)
	if deepAllocs > oneAllocs+2 {
		t.Errorf("32 nested blocks allocate %.0f times, 1 block %.0f: scopes should be free", deepAllocs, oneAllocs)
	}
}
