// The clusterer: the on-disk corpus in, a ranked cluster table out. A
// cluster is the set of findings that agree on (verdict class, cited
// typing rule, shape fingerprint) — the triple under which "hundreds of
// rejected-clean entries" decompose into a handful of inspectable
// flow-insensitivity classes, NI trial-budget misses, and frontend
// defect families. Alongside the clusters the report carries the
// corpus's novelty analytics (which seeds' mutants keep finding new
// keys), closing the descriptive half of the feedback loop whose
// prescriptive half is the seed pool's novelty weighting.
package triage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/events"
)

// Cluster is one (class, rule, shape) group of corpus findings.
type Cluster struct {
	// Class is the findings' corpus class; Rule the typing rule their IFC
	// rejection cited ("-" when the class involves no rule: parser
	// disagreements, runtime errors); Fingerprint their shared AST shape.
	Class       campaign.Class `json:"class"`
	Rule        string         `json:"rule"`
	Fingerprint string         `json:"fingerprint"`
	// Size is the member count; Keys lists every member's dedup key in
	// name-sorted corpus order.
	Size int      `json:"size"`
	Keys []string `json:"keys"`
	// Exemplar is the smallest member's program (ties broken by key), the
	// one worth reading first; ExemplarPath is its corpus file.
	Exemplar     string `json:"exemplar"`
	ExemplarPath string `json:"exemplar_path"`
	// ExemplarDetail is the exemplar's recorded witness or error text.
	ExemplarDetail string `json:"exemplar_detail"`
	// FirstSeen and LastSeen bracket the members' recorded discovery
	// times: a cluster still growing last night is live, one untouched
	// for weeks is mined out.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// GenOrigin and MutantOrigin split the members by origin — an
	// all-mutant cluster exists only because the coverage-guided loop
	// reached it.
	GenOrigin    int `json:"gen_origin"`
	MutantOrigin int `json:"mutant_origin"`
	// NIBudgetMin and NIBudgetMax bracket the members' recorded NI
	// escalation ceilings at detection (both 0 when the class never ran
	// NI or the corpus predates budget recording). A rejected-clean
	// cluster detected under a tall ceiling has survived a real witness
	// search; one under a low ceiling may just be a trial-budget miss.
	NIBudgetMin int `json:"ni_budget_min"`
	NIBudgetMax int `json:"ni_budget_max"`
}

// clusterKey orders and groups clusters.
func (c *Cluster) key() string {
	return string(c.Class) + "\x00" + c.Rule + "\x00" + c.Fingerprint
}

// SeedNovelty is one seed's mutation-productivity record, joined with its
// class when the seed is still in the corpus.
type SeedNovelty struct {
	Key     string         `json:"key"`
	Class   campaign.Class `json:"class,omitempty"` // "" when retired/missing
	Mutants int            `json:"mutants"`
	NewKeys int            `json:"new_keys"`
}

// Report is the triage outcome: the corpus as structured analytics.
type Report struct {
	CorpusDir string `json:"corpus_dir"`
	// Total counts findings triaged; ByClass splits them by class.
	Total   int                    `json:"total"`
	ByClass map[campaign.Class]int `json:"by_class"`
	// Clusters is the ranked cluster table: size-descending, ties broken
	// by (class, rule, fingerprint) for a stable order.
	Clusters []Cluster `json:"clusters"`
	// Novelty ranks seeds by recorded mutation productivity (new keys
	// descending); empty for corpora without novelty data.
	Novelty []SeedNovelty `json:"novelty,omitempty"`
	// Errors lists malformed corpus entries: unreadable pairs, metadata
	// that is not a finding's, programs that no longer parse. A corpus
	// whose metadata cannot be triaged is a corpus that cannot be
	// trusted as a regression suite either, so gates treat these as
	// failures.
	Errors []string `json:"errors,omitempty"`
}

// OK reports whether every corpus entry was triaged cleanly.
func (r *Report) OK() bool { return len(r.Errors) == 0 }

// Config configures a triage run.
type Config struct {
	// Corpus is the open corpus to triage (required); triage reads
	// through it, sharing its parse and fingerprint caches. An empty
	// corpus triages zero findings (empty report, OK).
	Corpus *corpus.Corpus
	// MaxNovelty caps the novelty ranking's length (0 = default 10,
	// negative = unlimited).
	MaxNovelty int
	// Events receives one cluster event per ranked cluster (and a final
	// progress tick); nil discards.
	Events events.Sink
}

// Triage reads every finding in cfg.Corpus and builds the cluster
// report. The returned error is a missing corpus or an unreadable
// novelty file; per-entry problems are collected in Report.Errors.
func Triage(cfg Config) (*Report, error) {
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("triage: needs an open corpus")
	}
	rep := &Report{
		CorpusDir: cfg.Corpus.Dir(),
		ByClass:   map[campaign.Class]int{},
	}
	clusters := map[string]*Cluster{}
	classByKey := map[string]campaign.Class{}
	for e, err := range cfg.Corpus.Entries() {
		if err != nil {
			rep.Errors = append(rep.Errors, err.Error())
			continue
		}
		m := e.Meta
		rep.Total++
		rep.ByClass[m.Class]++
		classByKey[m.Key] = m.Class
		fp, err := e.Fingerprint()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: program does not parse: %v", e.Path, err))
			continue
		}
		c := Cluster{Class: m.Class, Rule: m.CitedRule(), Fingerprint: fp}
		cl, ok := clusters[c.key()]
		if !ok {
			cl = &c
			cl.FirstSeen = m.FoundAt
			clusters[c.key()] = cl
		}
		cl.Size++
		cl.Keys = append(cl.Keys, m.Key)
		src, _ := e.Source() // cached by the Fingerprint call above
		if cl.Exemplar == "" || len(src) < len(cl.Exemplar) ||
			(len(src) == len(cl.Exemplar) && e.Path < cl.ExemplarPath) {
			cl.Exemplar = src
			cl.ExemplarPath = e.Path
			cl.ExemplarDetail = m.Detail
		}
		if m.FoundAt.Before(cl.FirstSeen) {
			cl.FirstSeen = m.FoundAt
		}
		if m.FoundAt.After(cl.LastSeen) {
			cl.LastSeen = m.FoundAt
		}
		if m.Origin == "mutate" {
			cl.MutantOrigin++
		} else {
			cl.GenOrigin++
		}
		if m.NITrialsMax > 0 {
			if cl.NIBudgetMin == 0 || m.NITrialsMax < cl.NIBudgetMin {
				cl.NIBudgetMin = m.NITrialsMax
			}
			if m.NITrialsMax > cl.NIBudgetMax {
				cl.NIBudgetMax = m.NITrialsMax
			}
		}
	}

	rep.Clusters = make([]Cluster, 0, len(clusters))
	for _, cl := range clusters {
		rep.Clusters = append(rep.Clusters, *cl)
	}
	sort.Slice(rep.Clusters, func(i, j int) bool {
		a, b := &rep.Clusters[i], &rep.Clusters[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		return a.key() < b.key()
	})
	sort.Strings(rep.Errors)
	for i := range rep.Clusters {
		cl := &rep.Clusters[i]
		cfg.Events.Emit(events.Event{
			Kind: events.KindCluster, Op: "triage",
			Class: string(cl.Class), Rule: cl.Rule, Detail: cl.Fingerprint,
			Path: cl.ExemplarPath, Done: cl.Size, Total: len(rep.Clusters),
		})
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "triage", Done: rep.Total, Total: rep.Total,
	})

	if err := rankNovelty(rep, cfg, classByKey); err != nil {
		return rep, err
	}
	return rep, nil
}

// rankNovelty joins the corpus's novelty records against the live
// findings' classes (gathered by Triage's corpus pass) and ranks seeds
// by productivity.
func rankNovelty(rep *Report, cfg Config, classByKey map[string]campaign.Class) error {
	stats, err := campaign.LoadNovelty(cfg.Corpus.Dir())
	if err != nil {
		return fmt.Errorf("triage: %w", err)
	}
	if len(stats) == 0 {
		return nil
	}
	for key, st := range stats {
		rep.Novelty = append(rep.Novelty, SeedNovelty{
			Key:     key,
			Class:   classByKey[key],
			Mutants: st.Mutants,
			NewKeys: st.NewKeys,
		})
	}
	sort.Slice(rep.Novelty, func(i, j int) bool {
		a, b := rep.Novelty[i], rep.Novelty[j]
		if a.NewKeys != b.NewKeys {
			return a.NewKeys > b.NewKeys
		}
		if a.Mutants != b.Mutants {
			return a.Mutants < b.Mutants // fewer tries for the same yield ranks higher
		}
		return a.Key < b.Key
	})
	max := cfg.MaxNovelty
	if max == 0 {
		max = 10
	}
	if max > 0 && len(rep.Novelty) > max {
		rep.Novelty = rep.Novelty[:max]
	}
	return nil
}
