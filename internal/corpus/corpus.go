// Package corpus is the single source of truth for on-disk finding
// corpora: the content-addressed layout every campaign-stack operation
// (campaign persistence, replay, triage, retire, the mutation seed pool)
// reads and writes. Before this package existed each of those re-opened,
// re-walked, and re-parsed the same directory with its own ad-hoc walker;
// now they all share one cached, validated handle.
//
//	<dir>/findings/<class>-<key12>.p4    the (possibly minimized) program
//	<dir>/findings/<class>-<key12>.json  verdict metadata (Meta below)
//	<dir>/findings/index.json            the corpus index (this package's)
//	<dir>/state/novelty-*.json           mutation-seed novelty records
//
// Open is metadata-only: it loads the findings index — rebuilding it
// transparently from a directory rescan when it is absent, stale, or
// corrupt — and caches every entry's metadata and load error, but reads
// no program source. Entry.Source, Entry.Program, and Entry.Fingerprint
// defer the file read and the parse until a consumer first asks, and
// each happens at most once per handle no matter how many consumers
// share it; Has, Stats, Filter, and Select are answered entirely from
// the index. Staleness is detected from directory metadata alone (file
// name set, sizes, mtimes), so a valid index makes Open one ReadDir plus
// one small JSON read regardless of corpus size.
//
// The layout is merge-friendly by construction: finding filenames derive
// from a hash of (class, source), so copying the findings/ directories of
// two corpora into one deduplicates identical findings by collision
// and never clobbers distinct ones. A stale index copied along rides the
// staleness check and is rebuilt on the next Open.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/parser"
)

// readFile is the program-source reader, swappable by tests that count
// how many source reads an access pattern performs (the index makes
// metadata-only paths perform zero).
var readFile = os.ReadFile

// opens counts Corpus handles opened by Open/OpenSink since process
// start; tests use it to assert a whole operation chain shared one
// handle.
var opens atomic.Int64

// Opens reports how many corpus handles this process has opened.
func Opens() int64 { return opens.Load() }

// Class names a corpus finding class; it prefixes corpus filenames. The
// class vocabulary (soundness-violation, rejected-clean, ...) is defined
// by internal/campaign, which owns the mapping from differential verdicts
// to classes; this package treats classes as opaque grouping keys.
type Class string

// Meta is the verdict metadata persisted next to each finding.
type Meta struct {
	// Class is the finding's corpus class (the filename prefix).
	Class Class `json:"class"`
	// Rule is the typing rule the IFC checker cited when it rejected the
	// program (e.g. "T-Assign"), "" when the class involves no IFC
	// rejection or the corpus predates rule recording. Triage clusters
	// findings by it; old corpora fall back to extracting the rule from
	// Detail's trailing "[Rule]" marker (see CitedRule).
	Rule string `json:"rule,omitempty"`
	// Detail is the witness, error text, or disagreement description.
	Detail string `json:"detail"`
	// Index is the global campaign index of the generating job; with Gen
	// and GenSeed it regenerates the original (unminimized) program when
	// Origin is "gen": the same program, in ast.Print's layout, which an
	// unminimized finding from an older generator may not share
	// byte for byte. Mutants are not regenerable from the seed
	// alone (they also depend on the seed pool at mutation time); their
	// provenance is ParentKey.
	Index int64 `json:"index"`
	// GenSeed is the program's generation seed (campaign seed + Index).
	GenSeed int64 `json:"gen_seed"`
	// NISeed seeds the program's NI experiment for exact replay.
	NISeed int64 `json:"ni_seed"`
	// NITrials and NITrialsMax record the NI budget the finding was
	// classified under, so replay re-checks with the same budget (zero
	// in pre-mutation corpora; replay then uses its own defaults).
	NITrials    int `json:"ni_trials,omitempty"`
	NITrialsMax int `json:"ni_trials_max,omitempty"`
	// NIOracle records the NI backend the finding was classified under
	// ("" = the historical adaptive default); ExhaustBudget and
	// ExhaustProbes pin the exhaustive oracle's enumeration parameters so
	// replay reproduces the same eligibility and probe count. Proof
	// provenance: a proved-imprecise or secret-exhaustive entry is only
	// meaningful together with the oracle (and coverage) that certified
	// it.
	NIOracle      string `json:"ni_oracle,omitempty"`
	ExhaustBudget uint64 `json:"exhaust_budget,omitempty"`
	ExhaustProbes int    `json:"exhaust_probes,omitempty"`
	// Gen echoes the generator configuration the seeds assume, including
	// the campaign lattice spec.
	Gen gen.Config `json:"gen"`
	// Origin is "gen" for freshly generated programs and "mutate" for
	// corpus-seeded mutants ("" in pre-mutation corpora, meaning "gen").
	Origin string `json:"origin,omitempty"`
	// ParentKey is the dedup key of the corpus seed a mutant was derived
	// from ("" for fresh programs); MutateOps names the mutation operators
	// applied, in order, for triage.
	ParentKey string `json:"parent_key,omitempty"`
	MutateOps string `json:"mutate_ops,omitempty"`
	// Shard/NumShards record which shard of a statically sharded campaign
	// found it. Campaigns no longer shard, so Put writes 0 of 1; the
	// fields stay for the on-disk format.
	Shard     int `json:"shard"`
	NumShards int `json:"num_shards"`
	// OriginalBytes and Bytes are the program size before and after
	// minimization (equal when minimization was off or unproductive).
	OriginalBytes int  `json:"original_bytes"`
	Bytes         int  `json:"bytes"`
	Minimized     bool `json:"minimized"`
	// Key is the full dedup key (hex SHA-256 over class and source).
	Key string `json:"key"`
	// FoundAt is the wall-clock time the finding was persisted.
	FoundAt time.Time `json:"found_at"`
	// RetiredFrom and RetiredAt are set only on entries of a retired
	// corpus (see internal/triage): the class the finding was originally
	// recorded under before its defect was fixed and the entry was
	// re-recorded under the current stack's verdict, and when.
	RetiredFrom Class     `json:"retired_from,omitempty"`
	RetiredAt   time.Time `json:"retired_at,omitzero"`
}

// CitedRule returns the typing rule this finding's rejection cited: the
// recorded Rule field when present, otherwise (pre-rule corpora) the
// trailing "[Rule]" marker diag.Diagnostic renders into the detail text;
// "-" when there is none. Triage clusters and the seed pool's cluster
// weighting both group by it.
func (m *Meta) CitedRule() string {
	if m.Rule != "" {
		return m.Rule
	}
	if i := strings.LastIndex(m.Detail, "["); i >= 0 {
		if j := strings.Index(m.Detail[i:], "]"); j > 1 {
			if r := m.Detail[i+1 : i+j]; ruleShaped(r) {
				return r
			}
		}
	}
	return "-"
}

// ruleShaped reports whether a bracketed token looks like a typing-rule
// name ("T-Assign", "T-If") rather than incidental brackets in witness
// text such as an array index ("hdr.h[2]"): letter first, then letters,
// digits, and dashes only.
func ruleShaped(r string) bool {
	for i, c := range r {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '-'):
		default:
			return false
		}
	}
	return r != ""
}

// DedupKey is the corpus identity of a finding: programs with the same
// class and (post-minimization) source are the same finding, regardless of
// which seed, window, or run produced them. Minimization canonicalizes
// aggressively, so minimizing campaigns collapse families of equivalent
// findings onto one corpus entry.
func DedupKey(class Class, source string) string {
	h := sha256.New()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// WriteMeta encodes m as indented JSON at path — the corpus metadata
// file format. Retired-corpus writers use it directly so promoted entries
// stay byte-compatible with campaign-written ones.
func WriteMeta(path string, m Meta) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: encode metadata: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("corpus: persist metadata: %w", err)
	}
	return nil
}

// Entry is one finding pair as indexed by Open: its metadata and — when
// the pair could not be loaded — the load error. Bad pairs stay in the
// iteration (callers choose whether they are fatal, as replay and
// triage's metadata gate do, or skippable, as the seed pool does); their
// Meta is zero. The program source is not read until Source, Program, or
// Fingerprint first asks for it.
type Entry struct {
	// Name is the metadata filename within findings/ (the iteration key).
	Name string
	// Path is the program file; MetaPath the metadata file beside it.
	Path     string
	MetaPath string
	// Meta is the loaded metadata (zero when Err is set).
	Meta Meta
	// Err is the load failure, if any: unreadable file, foreign or
	// truncated metadata, missing program.
	Err error

	// metaSize/metaMTime and progSize/progMTime are the stat signature
	// the index's staleness check compares against the directory
	// (progSize is -1 when the program file was absent at scan time).
	metaSize  int64
	metaMTime int64
	progSize  int64
	progMTime int64

	srcOnce sync.Once
	loaded  bool // source pre-populated (Put) — skip the file read
	src     string
	srcErr  error

	parseOnce sync.Once
	prog      *ast.Program
	parseErr  error
	fp        string
}

// Source reads the entry's program source, at most once per handle —
// Open itself reads no source files, so consumers that never ask (Has,
// Stats, Filter) never pay for one.
func (e *Entry) Source() (string, error) {
	e.srcOnce.Do(func() {
		if e.loaded {
			return
		}
		if e.Err != nil {
			e.srcErr = e.Err
			return
		}
		raw, err := readFile(e.Path)
		if err != nil {
			e.srcErr = err
			return
		}
		e.src = string(raw)
		e.loaded = true
	})
	return e.src, e.srcErr
}

// Program parses the entry's source, at most once per Open — every later
// call (and Fingerprint) returns the cached result, so triage, the seed
// pool, and any other consumer sharing the handle never re-parse. The
// source itself is lazily read by the first call.
func (e *Entry) Program() (*ast.Program, error) {
	e.parseOnce.Do(func() {
		src, err := e.Source()
		if err != nil {
			e.parseErr = err
			return
		}
		e.prog, e.parseErr = parser.Parse(strings.TrimSuffix(e.Name, ".json")+".p4", src)
		if e.parseErr == nil {
			e.fp = Fingerprint(e.prog)
		}
	})
	return e.prog, e.parseErr
}

// Fingerprint returns the entry's AST shape fingerprint, computed (and
// parsed) at most once. The error is the read or parse failure, if any.
func (e *Entry) Fingerprint() (string, error) {
	_, err := e.Program()
	return e.fp, err
}

// Rule returns the typing rule the entry's rejection cited ("-" if none);
// see Meta.CitedRule.
func (e *Entry) Rule() string { return e.Meta.CitedRule() }

// Corpus is an open, cached, validated handle over a finding corpus. All
// metadata reads go through the in-memory index built by Open; Put and
// Remove keep the index, the dedup map, and the on-disk files coherent.
// The zero value and the nil pointer are both usable as an empty,
// persistence-free corpus for Has.
type Corpus struct {
	dir     string
	sink    events.Sink
	entries []*Entry        // name-sorted
	known   map[string]bool // dedup keys of well-formed entries
	dirty   bool            // in-memory index diverged from findings/index.json
}

// indexName is the on-disk index file within findings/ — excluded from
// entry iteration and rebuilt whenever it is absent, stale, or corrupt.
const indexName = "index.json"

// indexVersion guards the index format; a mismatch forces a rescan.
const indexVersion = 1

// indexEntry is one Entry as persisted in the index: the metadata (or
// load error) plus the stat signature of the files it was scanned from.
type indexEntry struct {
	Name      string `json:"name"`
	Meta      Meta   `json:"meta"`
	Err       string `json:"err,omitempty"`
	MetaSize  int64  `json:"meta_size"`
	MetaMTime int64  `json:"meta_mtime"`
	ProgSize  int64  `json:"prog_size"`
	ProgMTime int64  `json:"prog_mtime"`
}

// indexFile is the findings/index.json document.
type indexFile struct {
	Version int          `json:"version"`
	Entries []indexEntry `json:"entries"`
}

// Open reads the corpus under dir — metadata only, through the findings
// index. A missing findings directory is an empty corpus (the first
// campaign run and triage of a not-yet-created corpus both start from
// nothing); any other directory-level failure is an error. Per-entry
// problems are not errors here — they are cached on the entry and
// surfaced by iteration, so each caller decides whether a corrupt pair
// is fatal.
func Open(dir string) (*Corpus, error) { return OpenSink(dir, nil) }

// OpenSink is Open with an events sink for recoverable anomalies: a
// corrupt or truncated index.json is reported as a warning event, then
// rebuilt from a full rescan. A nil sink discards the warnings.
func OpenSink(dir string, sink events.Sink) (*Corpus, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: empty directory")
	}
	c := &Corpus{dir: dir, sink: sink, known: map[string]bool{}}
	findings := filepath.Join(dir, "findings")
	dirents, err := os.ReadDir(findings)
	if os.IsNotExist(err) {
		opens.Add(1)
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if entries, ok := loadIndex(findings, dirents, sink); ok {
		c.entries = entries
	} else {
		c.entries = scanEntries(findings, dirents)
		c.dirty = true
		// Persist the rebuilt index best-effort: a read-only corpus stays
		// usable (every Open rescans), a writable one amortizes the scan.
		_ = c.SaveIndex()
	}
	for _, e := range c.entries {
		if e.Err == nil {
			c.known[e.Meta.Key] = true
		}
	}
	opens.Add(1)
	return c, nil
}

// scanEntries rebuilds the entry list from the findings directory: one
// entry per metadata file, name-sorted. Only metadata files are read;
// program files are stat'ed for the index signature, never opened.
func scanEntries(findings string, dirents []os.DirEntry) []*Entry {
	var entries []*Entry
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") || de.Name() == indexName {
			continue
		}
		entries = append(entries, scanEntry(findings, de.Name()))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// scanEntry loads one finding's metadata by its filename and records the
// pair's stat signature. The program file is stat'ed, not read.
func scanEntry(findings, jsonName string) *Entry {
	e := &Entry{
		Name:     jsonName,
		MetaPath: filepath.Join(findings, jsonName),
		Path:     filepath.Join(findings, strings.TrimSuffix(jsonName, ".json")+".p4"),
		progSize: -1,
	}
	if pi, err := os.Stat(e.Path); err == nil {
		e.progSize, e.progMTime = pi.Size(), pi.ModTime().UnixNano()
	}
	fi, err := os.Stat(e.MetaPath)
	if err != nil {
		e.Err = err
		return e
	}
	e.metaSize, e.metaMTime = fi.Size(), fi.ModTime().UnixNano()
	raw, err := os.ReadFile(e.MetaPath)
	if err != nil {
		e.Err = err
		return e
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		e.Err = fmt.Errorf("corpus: %s: %w", jsonName, err)
		return e
	}
	if m.Key == "" || m.Class == "" {
		e.Err = fmt.Errorf("corpus: %s: not a finding metadata file", jsonName)
		return e
	}
	if e.progSize < 0 {
		e.Err = fmt.Errorf("corpus: %s: missing program file", e.Path)
		return e
	}
	e.Meta = m
	return e
}

// loadIndex reads findings/index.json and validates it against the
// directory listing: the metadata-file name set must match exactly and
// every recorded stat signature (size, mtime) must agree, for metadata
// and program files alike. ok is false when the index is absent, stale,
// or corrupt — corruption additionally warns through the sink; staleness
// and absence are the normal flow of a corpus written by other handles.
func loadIndex(findings string, dirents []os.DirEntry, sink events.Sink) ([]*Entry, bool) {
	path := filepath.Join(findings, indexName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var idx indexFile
	if err := json.Unmarshal(raw, &idx); err != nil {
		sink.Emit(events.Event{
			Kind: events.KindWarning, Op: "corpus", Path: path,
			Detail: fmt.Sprintf("corrupt corpus index (%v) — rebuilding from a directory rescan", err),
		})
		return nil, false
	}
	if idx.Version != indexVersion {
		return nil, false
	}
	onDisk := map[string]os.DirEntry{}
	jsonCount := 0
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		onDisk[de.Name()] = de
		if strings.HasSuffix(de.Name(), ".json") && de.Name() != indexName {
			jsonCount++
		}
	}
	if jsonCount != len(idx.Entries) {
		return nil, false
	}
	entries := make([]*Entry, 0, len(idx.Entries))
	for _, ie := range idx.Entries {
		if !strings.HasSuffix(ie.Name, ".json") || ie.Name == indexName {
			return nil, false
		}
		de, ok := onDisk[ie.Name]
		if !ok {
			return nil, false
		}
		fi, err := de.Info()
		if err != nil || fi.Size() != ie.MetaSize || fi.ModTime().UnixNano() != ie.MetaMTime {
			return nil, false
		}
		progName := strings.TrimSuffix(ie.Name, ".json") + ".p4"
		pde, havePde := onDisk[progName]
		if ie.ProgSize < 0 {
			if havePde {
				return nil, false
			}
		} else {
			if !havePde {
				return nil, false
			}
			pfi, err := pde.Info()
			if err != nil || pfi.Size() != ie.ProgSize || pfi.ModTime().UnixNano() != ie.ProgMTime {
				return nil, false
			}
		}
		e := &Entry{
			Name:      ie.Name,
			Path:      filepath.Join(findings, progName),
			MetaPath:  filepath.Join(findings, ie.Name),
			Meta:      ie.Meta,
			metaSize:  ie.MetaSize,
			metaMTime: ie.MetaMTime,
			progSize:  ie.ProgSize,
			progMTime: ie.ProgMTime,
		}
		if ie.Err != "" {
			e.Err = errors.New(ie.Err)
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, true
}

// SaveIndex persists the in-memory index to findings/index.json when it
// has diverged from disk (after a rescan, Put, or Remove); a clean handle
// is a no-op. The write is atomic (temp file + rename), so concurrent
// readers see the old index or the new one, never a torn file. Engines
// call it at the end of a write-side operation; a missed save self-heals
// through the staleness rescan on the next Open.
func (c *Corpus) SaveIndex() error {
	if c == nil || c.dir == "" || !c.dirty {
		return nil
	}
	findings := filepath.Join(c.dir, "findings")
	idx := indexFile{Version: indexVersion, Entries: make([]indexEntry, 0, len(c.entries))}
	for _, e := range c.entries {
		ie := indexEntry{
			Name:     e.Name,
			Meta:     e.Meta,
			MetaSize: e.metaSize, MetaMTime: e.metaMTime,
			ProgSize: e.progSize, ProgMTime: e.progMTime,
		}
		if e.Err != nil {
			ie.Err = e.Err.Error()
		}
		idx.Entries = append(idx.Entries, ie)
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("corpus: encode index: %w", err)
	}
	tmp, err := os.CreateTemp(findings, ".index-*")
	if err != nil {
		return fmt.Errorf("corpus: persist index: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: persist index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: persist index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(findings, indexName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: persist index: %w", err)
	}
	c.dirty = false
	return nil
}

// Dir returns the corpus directory ("" for the zero/nil corpus).
func (c *Corpus) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Len is the number of indexed entries, well-formed and corrupt alike.
func (c *Corpus) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Has reports whether a finding with the given dedup key is present.
func (c *Corpus) Has(key string) bool { return c != nil && c.known[key] }

// Entries iterates every indexed entry in name-sorted order, yielding
// each entry together with its load error (nil for well-formed pairs).
// This is the iter.Seq2 form of the historical forEachFinding walker;
// replay, triage, retire, and the seed pool all consume it.
func (c *Corpus) Entries() iter.Seq2[*Entry, error] {
	return func(yield func(*Entry, error) bool) {
		if c == nil {
			return
		}
		for _, e := range c.entries {
			if !yield(e, e.Err) {
				return
			}
		}
	}
}

// Filter selects corpus entries by metadata. The zero filter matches
// every well-formed entry; corrupt entries never match (their metadata is
// unknown).
type Filter struct {
	// Class matches the finding class exactly ("" = any).
	Class Class
	// Rule matches the cited typing rule, with the same detail-marker
	// fallback triage clustering uses ("" = any; "-" = entries citing no
	// rule).
	Rule string
	// Origin matches the finding origin; "gen" also matches pre-mutation
	// entries with an empty recorded origin ("" = any).
	Origin string
	// Lattice matches the campaign lattice spec the finding was recorded
	// under; "two-point" also matches the pre-lattice empty spec
	// ("" = any).
	Lattice string
}

// Match reports whether e is well-formed and satisfies every set field.
func (f Filter) Match(e *Entry) bool {
	if e.Err != nil {
		return false
	}
	if f.Class != "" && e.Meta.Class != f.Class {
		return false
	}
	if f.Rule != "" && e.Rule() != f.Rule {
		return false
	}
	if f.Origin != "" {
		origin := e.Meta.Origin
		if origin == "" {
			origin = "gen"
		}
		if origin != f.Origin {
			return false
		}
	}
	if f.Lattice != "" {
		lat := e.Meta.Gen.Lattice
		if lat == "" {
			lat = "two-point"
		}
		if lat != f.Lattice {
			return false
		}
	}
	return true
}

// Select iterates the well-formed entries matching f, in name-sorted
// order.
func (c *Corpus) Select(f Filter) iter.Seq[*Entry] {
	return func(yield func(*Entry) bool) {
		if c == nil {
			return
		}
		for _, e := range c.entries {
			if f.Match(e) && !yield(e) {
				return
			}
		}
	}
}

// Stats summarizes an open corpus.
type Stats struct {
	// Total counts well-formed entries; Errors counts corrupt pairs.
	Total  int `json:"total"`
	Errors int `json:"errors"`
	// ByClass and ByOrigin split Total ("gen" absorbs the pre-mutation
	// empty origin).
	ByClass  map[Class]int  `json:"by_class,omitempty"`
	ByOrigin map[string]int `json:"by_origin,omitempty"`
	// Bytes totals the (post-minimization) program sizes.
	Bytes int `json:"bytes"`
	// Oldest and Newest bracket the recorded discovery times (zero for an
	// empty corpus or one predating FoundAt).
	Oldest time.Time `json:"oldest,omitzero"`
	Newest time.Time `json:"newest,omitzero"`
}

// Stats computes summary statistics over the index — program sizes come
// from the index's stat signatures, so no source file is read.
func (c *Corpus) Stats() Stats {
	st := Stats{ByClass: map[Class]int{}, ByOrigin: map[string]int{}}
	if c == nil {
		return st
	}
	for _, e := range c.entries {
		if e.Err != nil {
			st.Errors++
			continue
		}
		st.Total++
		st.ByClass[e.Meta.Class]++
		origin := e.Meta.Origin
		if origin == "" {
			origin = "gen"
		}
		st.ByOrigin[origin]++
		st.Bytes += int(e.progSize)
		if !e.Meta.FoundAt.IsZero() {
			if st.Oldest.IsZero() || e.Meta.FoundAt.Before(st.Oldest) {
				st.Oldest = e.Meta.FoundAt
			}
			if e.Meta.FoundAt.After(st.Newest) {
				st.Newest = e.Meta.FoundAt
			}
		}
	}
	return st
}

// Put persists one finding pair and keeps the handle coherent: the new
// entry joins the name-sorted index (its source already in memory — no
// read-back) and its key the dedup map; the on-disk index is marked
// stale until the next SaveIndex. The findings directory is created on
// first write, so opening a corpus never creates it. It returns the
// program file's path.
func (c *Corpus) Put(m Meta, source string) (string, error) {
	if c == nil || c.dir == "" {
		return "", fmt.Errorf("corpus: Put on a nil corpus")
	}
	if m.Class == "" || len(m.Key) < 12 {
		// The stem embeds Key[:12]; engines pass DedupKey output (64 hex
		// chars), but Put is public surface now and must not panic on a
		// hand-built Meta.
		return "", fmt.Errorf("corpus: Put needs a class and a dedup key of >= 12 chars (use DedupKey), got class %q, key %q", m.Class, m.Key)
	}
	if m.NumShards == 0 {
		m.NumShards = 1
	}
	findings := filepath.Join(c.dir, "findings")
	if err := os.MkdirAll(findings, 0o755); err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	stem := fmt.Sprintf("%s-%s", m.Class, m.Key[:12])
	e := &Entry{
		Name:     stem + ".json",
		Path:     filepath.Join(findings, stem+".p4"),
		MetaPath: filepath.Join(findings, stem+".json"),
		Meta:     m,
		src:      source,
		loaded:   true,
		progSize: -1,
	}
	if err := os.WriteFile(e.Path, []byte(source), 0o644); err != nil {
		return "", fmt.Errorf("corpus: persist finding: %w", err)
	}
	if err := WriteMeta(e.MetaPath, m); err != nil {
		return "", err
	}
	// Record the written files' stat signatures so the next SaveIndex
	// captures them and later Opens validate against them.
	if fi, err := os.Stat(e.MetaPath); err == nil {
		e.metaSize, e.metaMTime = fi.Size(), fi.ModTime().UnixNano()
	}
	if pi, err := os.Stat(e.Path); err == nil {
		e.progSize, e.progMTime = pi.Size(), pi.ModTime().UnixNano()
	}
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].Name >= e.Name })
	if i < len(c.entries) && c.entries[i].Name == e.Name {
		c.entries[i] = e // overwrite of an existing pair
	} else {
		c.entries = append(c.entries, nil)
		copy(c.entries[i+1:], c.entries[i:])
		c.entries[i] = e
	}
	c.known[m.Key] = true
	c.dirty = true
	return e.Path, nil
}

// Remove deletes one entry's pair from disk and from the handle: the
// index drops it, its dedup key leaves the map, and the on-disk index is
// marked stale until the next SaveIndex. The program file is removed
// first, so a failure mid-removal leaves a metadata orphan the next scan
// reports rather than a silently half-present finding.
func (c *Corpus) Remove(e *Entry) error {
	if c == nil || c.dir == "" {
		return fmt.Errorf("corpus: Remove on a nil corpus")
	}
	if err := os.Remove(e.Path); err != nil {
		return err
	}
	if err := os.Remove(e.MetaPath); err != nil {
		return err
	}
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].Name >= e.Name })
	if i < len(c.entries) && c.entries[i].Name == e.Name {
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	}
	if e.Err == nil {
		delete(c.known, e.Meta.Key)
	}
	c.dirty = true
	return nil
}
