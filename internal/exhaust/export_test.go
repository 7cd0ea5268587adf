package exhaust

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/ni"
)

// Sweep runs o's enumeration of e, with secret leaves the control never
// reads pinned at digit 0 or with every secret leaf enumerated, and
// returns the result with the machine runs it made. Check always pins;
// the unpinned sweep is the reference the differential tests compare
// against.
func Sweep(o Oracle, e *ni.Experiment, seed int64, pin bool) (ni.Result, uint64, error) {
	budget := o.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	return o.enumerate(e, seed, budget, pin)
}

// EntryReads runs the entry-liveness pass over prog's first control and
// returns the given leaf paths it reports as possibly read. Paths are
// written as in the source: "hdr.d.hi", "hdr.s[1].f".
func EntryReads(prog *ast.Program, paths ...string) []string {
	split := strings.NewReplacer("[", ".", "]", "")
	leaves := make([][]string, len(paths))
	for i, p := range paths {
		leaves[i] = strings.Split(split.Replace(p), ".")
	}
	read := entryReads(prog.Control(), leaves)
	var out []string
	for i, p := range paths {
		if read&(1<<i) != 0 {
			out = append(out, p)
		}
	}
	return out
}
