package campaign

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite the campaign identity goldens from the current stack (re-baseline only when a recorded verdict change is intended)")

// TestCampaignIdentityGolden pins what two fixed-seed campaigns compute,
// job by job: each index's verdict class, cited rule, NI trials and
// enumerated assignments, plus every finding's class, dedup key and source
// sum. A change meant to be behaviour-neutral (a faster trial loop, a
// cached plan) must leave both goldens byte-identical; one that changes a
// verdict on purpose re-baselines with -update and says why.
//
//   - adaptive: 400 jobs of the default generator, mutating and
//     minimizing over a copy of the regression corpus;
//   - exhaustive: 150 one-field jobs under the exhaustive oracle at a
//     2^10 enumeration budget, minimizing, with no corpus.
//
// Both run on 2 workers, so the goldens also pin that results do not
// depend on scheduling.
func TestCampaignIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns")
	}
	for _, tc := range []struct {
		name   string
		n      int64
		spec   Spec
		corpus bool
	}{
		{"adaptive", 400, Spec{Seed: 7, Gen: identityGen(3), Mutate: true, Minimize: true}, true},
		{"exhaustive", 150, Spec{Seed: 7, Gen: identityGen(1), Minimize: true,
			Budget: pipeline.Budget{Oracle: pipeline.OracleExhaustive, ExhaustBudget: 1 << 10}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Window: Window{Lo: 0, Hi: tc.n}, Spec: tc.spec, Workers: 2}
			if tc.corpus {
				cfg.Corpus = openCorpus(t, copyCorpus(t, "../../testdata/regression-corpus"))
			}
			jobs := make([]string, tc.n)
			cfg.onResult = func(r *pipeline.JobResult) {
				v, _ := difftest.Classify(r)
				jobs[r.Job.Seq] = fmt.Sprintf("job %d class=%q rule=%q trials=%d assignments=%d\n",
					r.Job.Seq, v.String(), r.CitedRule(), r.NITrialsRun, r.NIAssignments)
			}
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Analyzed != int(tc.n) {
				t.Fatalf("analyzed %d jobs, want %d", rep.Analyzed, tc.n)
			}
			var out strings.Builder
			for _, l := range jobs {
				out.WriteString(l)
			}
			for _, f := range rep.Findings {
				fmt.Fprintf(&out, "finding %d class=%s key=%s minimized=%t p4=%x\n",
					f.Index, f.Class, f.Key, f.Minimized, sha256.Sum256([]byte(f.Source)))
			}
			compareGolden(t, filepath.Join("testdata", "identity-"+tc.name+".golden"), out.String())
		})
	}
}

// identityGen is p4fuzz's default generator with the given field count.
func identityGen(fields int) gen.Config {
	return gen.Config{MaxDepth: 3, MaxStmts: 5, NumFields: fields, WithActions: true}
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update. A mismatch reports the first differing line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
