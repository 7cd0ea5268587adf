// Novelty tracking: true coverage feedback for the seed scheduler. The
// corpus records per seed how many mutant jobs the campaigns have derived
// from it and how many of those mutants landed as *new* dedup keys — new
// corpus entries, which is the campaign's notion of new coverage. The
// seed pool multiplies its static class × recency prior by a novelty
// boost computed from these counters, so mutation budget drains away from
// seeds whose neighborhoods are mined out and toward seeds that keep
// producing programs the corpus has never seen.
//
// Each run merges its deltas into
//
//	<dir>/state/novelty-0-of-1.json
//
// and every reader merges all novelty-*.json files additively. The file
// name dates from static sharding, whose shard i of n wrote
// novelty-<i>-of-<n>.json; corpora that still carry such files keep
// loading. Scheduling stays deterministic: runs that share a corpus
// snapshot — findings and novelty files alike — compute identical pool
// weights and therefore identical per-index seed draws.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// NoveltyStat is the per-seed mutation-productivity record.
type NoveltyStat struct {
	// Mutants counts mutant jobs derived from this seed (analyzed, not
	// merely scheduled: a failed mutation that fell back to generation is
	// not charged).
	Mutants int `json:"mutants"`
	// NewKeys counts mutants that persisted as new dedup keys — new
	// corpus entries, the scheduler's coverage signal. Duplicates and
	// already-known findings don't count.
	NewKeys int `json:"new_keys"`
	// LastNewAt is when this seed last produced a new key.
	LastNewAt time.Time `json:"last_new_at,omitzero"`
}

// add merges another stat record into s (counters sum, timestamps max).
func (s *NoveltyStat) add(o NoveltyStat) {
	s.Mutants += o.Mutants
	s.NewKeys += o.NewKeys
	if o.LastNewAt.After(s.LastNewAt) {
		s.LastNewAt = o.LastNewAt
	}
}

// noveltyFile is the on-disk shape of one novelty file.
type noveltyFile struct {
	// Seeds maps a seed's dedup key to its productivity record.
	Seeds map[string]NoveltyStat `json:"seeds"`
	// UpdatedAt is when a run last merged its deltas in.
	UpdatedAt time.Time `json:"updated_at"`
}

// LoadNovelty merges every state/novelty-*.json under dir into one view.
// A corpus without novelty data (including every pre-novelty corpus)
// yields an empty map — the seed pool then reduces to the static
// class × recency prior. Unreadable or foreign files are an error: the
// scheduler silently falling back to the static prior would be
// indistinguishable from novelty feedback quietly not working.
func LoadNovelty(dir string) (map[string]NoveltyStat, error) {
	out := map[string]NoveltyStat{}
	if dir == "" {
		return out, nil
	}
	stateDir := filepath.Join(dir, "state")
	entries, err := os.ReadDir(stateDir)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: novelty: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "novelty-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(stateDir, name))
		if err != nil {
			return nil, fmt.Errorf("campaign: novelty: %w", err)
		}
		var f noveltyFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("campaign: novelty %s: %w", name, err)
		}
		for key, st := range f.Seeds {
			acc := out[key]
			acc.add(st)
			out[key] = acc
		}
	}
	return out, nil
}

// saveNoveltyDeltas merges one run's per-seed deltas into the novelty
// file under dir.
func saveNoveltyDeltas(dir string, deltas map[string]NoveltyStat) error {
	if len(deltas) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		return fmt.Errorf("campaign: save novelty: %w", err)
	}
	path := filepath.Join(dir, "state", "novelty-0-of-1.json")
	f := noveltyFile{Seeds: map[string]NoveltyStat{}}
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("campaign: novelty: %w", err)
	default:
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("campaign: novelty %s: %w", path, err)
		}
		if f.Seeds == nil {
			f.Seeds = map[string]NoveltyStat{}
		}
	}
	for key, st := range deltas {
		acc := f.Seeds[key]
		acc.add(st)
		f.Seeds[key] = acc
	}
	f.UpdatedAt = time.Now()
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encode novelty: %w", err)
	}
	// Write-then-rename: LoadNovelty hard-errors on an unparseable
	// novelty file (by design — see its doc), so a run killed mid-write
	// must never leave a truncated file behind, or every later campaign
	// and triage over this corpus would fail until someone deletes it.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(enc, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign: save novelty: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: save novelty: %w", err)
	}
	return nil
}
