package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// writePoolFinding drops one synthetic finding pair into dir so seed-pool
// tests control class, recency, and keys exactly.
func writePoolFinding(t *testing.T, dir string, class Class, src string, foundAt time.Time) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
		t.Fatal(err)
	}
	key := corpus.DedupKey(class, src)
	stem := fmt.Sprintf("%s-%s", class, key[:12])
	if err := corpus.WriteMeta(filepath.Join(dir, "findings", stem+".json"), corpus.Meta{
		Class: class, Key: key, FoundAt: foundAt,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "findings", stem+".p4"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return key
}

// poolOf opens dir as a corpus handle and builds its seed pool — the
// two-step form every seed-pool test wants in one call.
func poolOf(dir string) (*seedPool, error) {
	c, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	return loadSeedPool(c, nil)
}

// writeNovelty persists one novelty file directly, under name.
func writeNovelty(t *testing.T, dir, name string, seeds map[string]NoveltyStat) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(noveltyFile{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state", name), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNoveltyMergeAcrossShardFiles: readers sum every state/novelty-*.json,
// so the per-shard files of corpora written under static sharding keep
// counting, and saving merges a run's deltas into the current file
// additively.
func TestNoveltyMergeAcrossShardFiles(t *testing.T) {
	dir := t.TempDir()
	writeNovelty(t, dir, "novelty-0-of-2.json", map[string]NoveltyStat{"k1": {Mutants: 3}})
	writeNovelty(t, dir, "novelty-1-of-2.json", map[string]NoveltyStat{
		"k1": {Mutants: 2, NewKeys: 2},
		"k2": {Mutants: 5},
	})
	for _, deltas := range []map[string]NoveltyStat{
		{"k1": {NewKeys: 1}},
		// A second save into the same file merges, not clobbers.
		{"k1": {Mutants: 1}},
	} {
		if err := saveNoveltyDeltas(dir, deltas); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "state", "novelty-0-of-1.json")); err != nil {
		t.Fatalf("saved deltas not in novelty-0-of-1.json: %v", err)
	}

	got, err := LoadNovelty(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := got["k1"]; st.Mutants != 6 || st.NewKeys != 3 {
		t.Errorf("k1 merged to %+v, want mutants=6 new_keys=3", st)
	}
	if st := got["k2"]; st.Mutants != 5 || st.NewKeys != 0 {
		t.Errorf("k2 merged to %+v, want mutants=5", st)
	}
}

// TestNoveltyLoadRejectsCorrupt: a corrupt novelty file is an error, not
// a silent fallback to the static prior.
func TestNoveltyLoadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state", "novelty-0-of-1.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNovelty(dir); err == nil {
		t.Fatal("corrupt novelty file loaded without error")
	}
	if _, err := poolOf(dir); err == nil {
		t.Fatal("seed pool built over a corrupt novelty file without error")
	}
}

// TestSeedPoolStaticPriorWithoutNovelty: with no novelty records every
// seed gets the same neutral boost, so the sampling distribution reduces
// exactly to the historical class × recency prior — pre-novelty corpora
// schedule as they always did, which is also what keeps the window-union
// and chain-reach tests meaningful for the new pool.
func TestSeedPoolStaticPriorWithoutNovelty(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	writePoolFinding(t, dir, ClassRejectedClean, "src-a", base.Add(3*time.Hour))
	writePoolFinding(t, dir, ClassSoundnessViolation, "src-b", base.Add(2*time.Hour))
	writePoolFinding(t, dir, ClassRejectedClean, "src-c", base.Add(1*time.Hour))

	pool, err := poolOf(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pool.size() != 3 {
		t.Fatalf("pool size %d, want 3", pool.size())
	}
	for i := 0; i < pool.size(); i++ {
		want := classWeight(pool.entries[i].class) * math.Pow(recencyDecay, float64(i)) * noveltyExploreBonus
		if got := pool.weightOf(i); math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d weight %v, want static prior × neutral boost %v", i, got, want)
		}
	}
}

// TestSeedPoolNoveltyDistribution is the scheduling lock: two seeds of
// the same class and adjacent recency, one with a productive novelty
// record and one mined out, must be drawn in proportion to their boosts —
// the productive seed several times as often.
func TestSeedPoolNoveltyDistribution(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Same timestamp: rank order falls back to the key, and the recency
	// difference between adjacent ranks (×0.97) is negligible next to the
	// boost ratio asserted below.
	prodKey := writePoolFinding(t, dir, ClassRejectedClean, "src-productive", base)
	barrenKey := writePoolFinding(t, dir, ClassRejectedClean, "src-barren", base)
	writeNovelty(t, dir, "novelty-0-of-1.json", map[string]NoveltyStat{
		prodKey:   {Mutants: 10, NewKeys: 8},
		barrenKey: {Mutants: 10, NewKeys: 0},
	})

	pool, err := poolOf(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	draws := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		draws[pool.pick(rng).key]++
	}
	if draws[prodKey]+draws[barrenKey] != n {
		t.Fatalf("draws went to unknown seeds: %v", draws)
	}
	// Expected ratio ≈ boost(8/10) / boost(0/10) = (0.5+3·0.8)/0.5 = 5.8,
	// modulated by the ±3% recency step depending on key order. Assert
	// the productive seed dominates by at least 4x — decisive, but slack
	// enough to be deterministic across rng streams.
	ratio := float64(draws[prodKey]) / float64(draws[barrenKey])
	if ratio < 4 {
		t.Errorf("productive seed drawn only %.2fx as often as the barren one (%d vs %d); novelty feedback is not steering the pool",
			ratio, draws[prodKey], draws[barrenKey])
	}

	// An unexplored seed outranks a mined-out one but not a proven producer.
	unexplored := noveltyBoost(NoveltyStat{}, false)
	barren := noveltyBoost(NoveltyStat{Mutants: 10}, true)
	producer := noveltyBoost(NoveltyStat{Mutants: 10, NewKeys: 9}, true)
	if !(barren < unexplored && unexplored < producer) {
		t.Errorf("boost ordering broken: barren %v, unexplored %v, producer %v", barren, unexplored, producer)
	}
}

// TestCampaignRecordsNovelty: a mutation-enabled run writes the corpus
// novelty file, charging analyzed mutants to their parents and crediting
// parents whose mutants persisted as new keys.
func TestCampaignRecordsNovelty(t *testing.T) {
	dir := t.TempDir()
	seedCorpus(t, dir, Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Minimize: true},
		CorpusDir: dir,
	})
	rep, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 120},
		Spec:      Spec{Seed: 7, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}, Mutate: true, MaxPerClass: -1},
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MutantJobs == 0 {
		t.Fatal("no mutants ran; nothing to record")
	}
	stats, err := LoadNovelty(dir)
	if err != nil {
		t.Fatal(err)
	}
	totalMutants, totalNew := 0, 0
	for key, st := range stats {
		if key == "" {
			t.Error("novelty recorded under an empty parent key")
		}
		totalMutants += st.Mutants
		totalNew += st.NewKeys
		if st.NewKeys > st.Mutants {
			t.Errorf("seed %s: %d new keys from %d mutants", key, st.NewKeys, st.Mutants)
		}
	}
	if totalMutants != rep.MutantJobs {
		t.Errorf("novelty charges %d mutants, report analyzed %d", totalMutants, rep.MutantJobs)
	}
	// One mutant job earns at most one credit even if it surfaced two
	// findings (verdict + parser disagreement), so compare against the
	// distinct job indices behind the new mutant findings.
	mutantJobs := map[int64]bool{}
	for _, f := range rep.Findings {
		if f.Origin == "mutate" {
			mutantJobs[f.Index] = true
		}
	}
	if totalNew != len(mutantJobs) {
		t.Errorf("novelty credits %d new keys, report has new mutant findings from %d jobs", totalNew, len(mutantJobs))
	}
}

// TestCampaignMetaRecordsRule: rejection findings carry their cited
// typing rule in both the in-memory finding and the persisted metadata —
// what triage clusters on.
func TestCampaignMetaRecordsRule(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(context.Background(), Config{
		Window:    Window{Lo: 0, Hi: 80},
		Spec:      Spec{Seed: 11, Gen: smallGen(), Budget: pipeline.Budget{Trials: 1, TrialsMax: 4}},
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range rep.Findings {
		if f.Class != ClassRejectedClean {
			continue
		}
		checked++
		if f.Rule == "" {
			t.Errorf("rejected-clean finding %s has no cited rule", f.Key)
		}
	}
	if checked == 0 {
		t.Skip("campaign found no rejected-clean findings to check")
	}
	for key, m := range readKeys(t, dir) {
		if m.Class == ClassRejectedClean && m.Rule == "" {
			t.Errorf("persisted rejected-clean %s has no rule in metadata", key)
		}
		if m.Rule != "" && !strings.Contains(m.Detail, "["+m.Rule+"]") {
			t.Errorf("persisted rule %q not the one cited in detail %q", m.Rule, m.Detail)
		}
	}
}

// Cluster-saturation fixtures: progShape1 and progShape1Twin differ only
// in identifier spellings (same AST shape fingerprint); progShape2 has a
// different statement structure (a different fingerprint).
const (
	progShape1 = `header d_t { <bit<8>, low> lo; <bit<8>, high> hi; }
struct H { d_t d; }
control c(inout H hdr) { apply { hdr.d.lo = hdr.d.lo + 8w1; } }
`
	progShape1Twin = `header pkt_t { <bit<8>, low> pub; <bit<8>, high> sec; }
struct H { pkt_t d; }
control ingress(inout H hdr) { apply { hdr.d.pub = hdr.d.pub + 8w7; } }
`
	progShape2 = `header d_t { <bit<8>, low> lo; <bit<8>, high> hi; }
struct H { d_t d; }
control c(inout H hdr) { apply { hdr.d.lo = 8w1; } }
`
)

// TestSeedPoolClusterSaturationDistribution is the cluster-weighting
// lock: when every *explored* member of a shape class is mined out, its
// unexplored members fade too — the whole (class, rule, shape) cluster
// carries the evidence, not just the individual seed. Two individually
// unexplored seeds of the same class: the one sharing a fingerprint with
// a mined-out sibling must be drawn measurably less often than the one in
// an untouched shape class.
func TestSeedPoolClusterSaturationDistribution(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	minedKey := writePoolFinding(t, dir, ClassRejectedClean, progShape1, base.Add(3*time.Hour))    // rank 0
	twinKey := writePoolFinding(t, dir, ClassRejectedClean, progShape1Twin, base.Add(2*time.Hour)) // rank 1, unexplored
	freshKey := writePoolFinding(t, dir, ClassRejectedClean, progShape2, base.Add(1*time.Hour))    // rank 2, unexplored
	writeNovelty(t, dir, "novelty-0-of-1.json", map[string]NoveltyStat{minedKey: {Mutants: 30, NewKeys: 0}})

	pool, err := poolOf(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pool.size() != 3 {
		t.Fatalf("pool size %d, want 3", pool.size())
	}
	weight := map[string]float64{}
	for i := range pool.entries {
		weight[pool.entries[i].key] = pool.weightOf(i)
	}
	// Exact weights: classWeight(rejected-clean)=2 throughout.
	//   mined (rank 0): 2 · 0.97⁰ · floor(0.5)   · cluster(0/30 → 0.5)
	//   twin  (rank 1): 2 · 0.97¹ · explore(1.5) · cluster(0/30 → 0.5)
	//   fresh (rank 2): 2 · 0.97² · explore(1.5) · cluster(neutral 1.0)
	wants := map[string]float64{
		minedKey: 2 * noveltyFloor * clusterFloor,
		twinKey:  2 * recencyDecay * noveltyExploreBonus * clusterFloor,
		freshKey: 2 * recencyDecay * recencyDecay * noveltyExploreBonus,
	}
	for key, want := range wants {
		if got := weight[key]; math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %.12s weight %v, want %v", key, got, want)
		}
	}
	// The distribution lock: the untouched shape class dominates the
	// mined-out class's unexplored twin (expected ratio ≈ 1/clusterFloor
	// modulo one recency step ≈ 1.94x; assert a decisive 1.5x), and the
	// twin still outdraws its explored mined-out sibling.
	rng := rand.New(rand.NewSource(7))
	draws := map[string]int{}
	for i := 0; i < 20000; i++ {
		draws[pool.pick(rng).key]++
	}
	if r := float64(draws[freshKey]) / float64(draws[twinKey]); r < 1.5 {
		t.Errorf("fresh-shape seed drawn only %.2fx as often as the mined-out cluster's twin (%d vs %d); cluster saturation is not steering the pool",
			r, draws[freshKey], draws[twinKey])
	}
	if draws[twinKey] <= draws[minedKey] {
		t.Errorf("unexplored twin (%d draws) did not outdraw its explored mined-out sibling (%d)", draws[twinKey], draws[minedKey])
	}
}

// TestSeedPoolClusterLiftsProductiveShapes: the converse — a cluster
// whose explored member keeps finding new keys lifts its unexplored
// members above a neutral untouched shape class.
func TestSeedPoolClusterLiftsProductiveShapes(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	prodKey := writePoolFinding(t, dir, ClassRejectedClean, progShape1, base.Add(3*time.Hour))
	twinKey := writePoolFinding(t, dir, ClassRejectedClean, progShape1Twin, base.Add(2*time.Hour))
	writePoolFinding(t, dir, ClassRejectedClean, progShape2, base.Add(1*time.Hour))
	writeNovelty(t, dir, "novelty-0-of-1.json", map[string]NoveltyStat{prodKey: {Mutants: 10, NewKeys: 10}})

	pool, err := poolOf(dir)
	if err != nil {
		t.Fatal(err)
	}
	var twinW, freshW float64
	for i := range pool.entries {
		switch pool.entries[i].key {
		case twinKey:
			twinW = pool.weightOf(i)
		case prodKey:
		default:
			freshW = pool.weightOf(i)
		}
	}
	// twin: 0.97¹ · 1.5 · cluster(10/10 → 1.5); fresh: 0.97² · 1.5 · 1.0.
	if twinW <= freshW {
		t.Errorf("productive cluster's twin (%v) does not outweigh the untouched shape (%v)", twinW, freshW)
	}
}
