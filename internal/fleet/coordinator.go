// The coordinator side of the fleet protocol: open (or adopt) the
// manifest, watch done markers land and merge their findings into the
// main corpus, reclaim the leases of dead workers, and advance the
// frontier when the span is covered. The coordinator is the only writer
// of the main corpus and the only process that removes another worker's
// lease — workers are many and expendable, the coordinator is one and
// careful.
package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// Config configures a coordinator run.
type Config struct {
	// CorpusDir is the main corpus the fleet grows; the fleet/ protocol
	// directory lives under it. Required.
	CorpusDir string
	// N is the number of global indices this fleet run covers: the span is
	// [frontier, frontier+N), where the frontier is what previous fleet
	// runs advanced it to.
	N int64
	// WindowSize is the lease granularity (default N/8, at least 1).
	// Smaller windows cost more protocol traffic but lose less work per
	// dead worker.
	WindowSize int64
	// Spec is the campaign the workers run, passed to them through the
	// manifest. Its seed, generator and NI oracle are manifest-wide: every
	// worker must generate and judge an index the same way or the merged
	// corpus mixes campaigns and verdict semantics.
	campaign.Spec
	// LeaseTTL is how stale a worker heartbeat may grow before its window
	// is reclaimed (default 1 minute). It bounds how long a dead worker's
	// window sits idle, so it should comfortably exceed the worker's
	// heartbeat interval (TTL/3) plus its worst GC-or-IO stall, and no
	// more.
	LeaseTTL time.Duration
	// Poll is the coordinator's scan interval (default LeaseTTL/4).
	Poll time.Duration
	// Log receives merge and reclaim lines (nil = discard).
	Log io.Writer
	// Events receives the coordinator's structured stream: reclaim events
	// as dead leases are harvested, one merge event per finding copied
	// into the main corpus, and warnings. nil discards.
	Events events.Sink
	// Metrics, when non-nil, receives the coordinator's fleet telemetry:
	// active/stale lease and heartbeat-age gauges, reclaim and window
	// counters, per-worker merge counters, and the
	// fleet_last_scan_unix_seconds liveness gauge HealthChecker reads.
	Metrics *metrics.Registry
}

// Report is the coordinator's outcome.
type Report struct {
	// Lo and Hi delimit the covered span; Windows counts its leases.
	Lo, Hi     int64
	WindowSize int64
	Windows    int
	// Reclaimed counts expired leases harvested from dead workers.
	Reclaimed int
	// Merged counts findings copied into the main corpus; Known counts
	// done-marker keys the corpus already had (from earlier runs or from
	// windows whose findings overlap).
	Merged int
	Known  int
	// WindowsByWorker attributes completed windows to worker ids.
	WindowsByWorker map[string]int
	Elapsed         time.Duration
	// Errors lists merge anomalies: marker keys whose finding was still
	// missing from the worker's staging corpus when the run ended.
	Errors []string
}

// windowState tracks one window's merge progress across scan ticks.
type windowState struct {
	merged bool
	// pending holds marker keys not yet copied (staging entry unreadable
	// or not yet visible); retried every tick until the marker's window
	// counts as merged.
	marker *DoneMarker
}

// RunCoordinator runs a fleet span to completion: it opens (or, after a
// coordinator crash, adopts) the manifest, then scans until every window
// has a done marker and every marker key is merged into the main corpus.
// Cancelling ctx leaves the manifest in place, so a later coordinator
// resumes the same span.
func RunCoordinator(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.CorpusDir == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a corpus dir")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fleet: N must be positive, got %d", cfg.N)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = time.Minute
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.LeaseTTL / 4
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Gen == (gen.Config{}) {
		cfg.Gen = gen.DefaultConfig()
	}
	for _, d := range []string{leasesDir(cfg.CorpusDir), doneDir(cfg.CorpusDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}

	man, err := openManifest(cfg)
	if err != nil {
		return nil, err
	}
	main, err := corpus.OpenSink(cfg.CorpusDir, cfg.Events)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	windows := man.windows()
	rep := &Report{
		Lo: man.Lo, Hi: man.Hi, WindowSize: man.Window,
		Windows:         len(windows),
		WindowsByWorker: map[string]int{},
	}
	states := make(map[Window]*windowState, len(windows))
	for _, w := range windows {
		states[w] = &windowState{}
	}
	mergedKeys := map[string]bool{}
	// misses maps a marker key not (yet) found in its worker's staging
	// corpus to its error line. A miss can be transient, so only the misses
	// still unresolved when the run ends become Report.Errors.
	misses := map[string]string{}
	defer func() {
		for _, msg := range misses {
			rep.Errors = append(rep.Errors, msg)
		}
		sort.Strings(rep.Errors)
	}()
	start := time.Now()

	// Pre-register the fleet series so a scrape taken the instant the
	// coordinator starts already shows them (at zero), and cache the
	// per-scan handles. All nil and no-op without a registry.
	lastScan := cfg.Metrics.Gauge(metrics.FleetLastScan)
	cfg.Metrics.Gauge(metrics.FleetActiveLeases)
	cfg.Metrics.Gauge(metrics.FleetStaleLeases)
	cfg.Metrics.Gauge(metrics.FleetHeartbeatAge)
	cfg.Metrics.Counter(metrics.FleetReclaims)
	cfg.Metrics.Counter(metrics.FleetWindowsDone)
	cfg.Metrics.Gauge(metrics.FleetWindows).SetInt(int64(len(windows)))

	for {
		lastScan.SetInt(time.Now().Unix())
		scanDone(ctx, cfg, main, windows, states, mergedKeys, misses, rep)
		if err := reclaimExpired(cfg, man, rep); err != nil {
			return rep, err
		}
		done := 0
		for _, st := range states {
			if st.merged {
				done++
			}
		}
		if done == len(windows) {
			break
		}
		select {
		case <-time.After(cfg.Poll):
		case <-ctx.Done():
			rep.Elapsed = time.Since(start)
			return rep, ctx.Err()
		}
	}

	// The span is covered and merged: persist, advance the frontier, and
	// retire the run's protocol files. Staging corpora stay — they are the
	// workers' dedup memory across fleet runs. The manifest is removed
	// FIRST: workers poll it every pass and stop when it is gone, so no
	// worker can observe the done markers vanishing below and conclude the
	// span needs re-covering.
	if err := main.SaveIndex(); err != nil {
		fmt.Fprintf(cfg.Log, "fleet: %v (index rebuilt on next open)\n", err)
	}
	if err := writeJSONAtomic(frontierPath(cfg.CorpusDir), frontier{NextIndex: man.Hi, UpdatedAt: time.Now()}); err != nil {
		return rep, err
	}
	os.Remove(manifestPath(cfg.CorpusDir))
	for _, w := range windows {
		os.Remove(donePath(cfg.CorpusDir, w.Lo, w.Hi))
		os.Remove(leasePath(cfg.CorpusDir, w.Lo, w.Hi))
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// openManifest adopts an open fleet run or starts a fresh one at the
// frontier. Adopting validates the campaign identity: merging windows
// generated under a different seed or generator would poison the corpus
// with findings from a different campaign.
func openManifest(cfg Config) (*Manifest, error) {
	man, err := readManifest(cfg.CorpusDir)
	if err == nil {
		if man.Seed != cfg.Seed || man.Gen != cfg.Gen {
			return nil, fmt.Errorf("fleet: an open fleet run at %s was recorded for a different seed or generator config — finish it with matching flags or remove it",
				manifestPath(cfg.CorpusDir))
		}
		// The oracle is part of the campaign identity too: the same window
		// judged under a different NI backend can classify differently.
		if man.Oracle != cfg.Oracle || man.ExhaustBudget != cfg.ExhaustBudget || man.ExhaustProbes != cfg.ExhaustProbes {
			return nil, fmt.Errorf("fleet: an open fleet run at %s was recorded for a different NI oracle configuration — finish it with matching flags or remove it",
				manifestPath(cfg.CorpusDir))
		}
		return man, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	// A fresh run starts from a clean slate: leftover lease or done files
	// (a worker that outlived its retired run, say) must not make this
	// run's windows look claimed or covered.
	for _, d := range []string{leasesDir(cfg.CorpusDir), doneDir(cfg.CorpusDir)} {
		ents, rerr := os.ReadDir(d)
		if rerr != nil {
			continue
		}
		for _, de := range ents {
			os.Remove(filepath.Join(d, de.Name()))
		}
	}
	lo := loadFrontier(cfg.CorpusDir, cfg.Events)
	win := cfg.WindowSize
	if win <= 0 {
		win = cfg.N / 8
	}
	if win < 1 {
		win = 1
	}
	man = &Manifest{
		Lo: lo, Hi: lo + cfg.N, Window: win,
		Spec:      cfg.Spec,
		LeaseTTL:  cfg.LeaseTTL,
		CreatedAt: time.Now(),
	}
	if err := writeJSONAtomic(manifestPath(cfg.CorpusDir), man); err != nil {
		return nil, err
	}
	return man, nil
}

// scanDone ingests newly landed done markers and merges their keys. A key
// whose staging entry is unreadable this tick (a fresh Open raced a
// non-atomic corpus write, an I/O hiccup) is retried next tick; the
// window only counts as merged once every key is accounted for.
func scanDone(ctx context.Context, cfg Config, main *corpus.Corpus, windows []Window, states map[Window]*windowState, mergedKeys map[string]bool, misses map[string]string, rep *Report) {
	// One staging handle per worker per tick, opened lazily and reopened
	// when a marker names a key the handle lacks: the worker may have
	// persisted that marker's findings after the handle was opened.
	staging := map[string]*corpus.Corpus{}
	openStaging := func(worker string, reopen bool) *corpus.Corpus {
		if c, ok := staging[worker]; ok && !reopen {
			return c
		}
		c, err := corpus.Open(StagingDir(cfg.CorpusDir, worker))
		if err != nil {
			fmt.Fprintf(cfg.Log, "fleet: staging %s: %v (retrying)\n", worker, err)
			c = nil
		}
		staging[worker] = c
		return c
	}

	for _, w := range windows {
		st := states[w]
		if st.merged || ctx.Err() != nil {
			continue
		}
		if st.marker == nil {
			var m DoneMarker
			if err := readJSON(donePath(cfg.CorpusDir, w.Lo, w.Hi), &m); err != nil {
				if !os.IsNotExist(err) {
					fmt.Fprintf(cfg.Log, "fleet: %v (retrying)\n", err)
				}
				continue
			}
			st.marker = &m
			rep.WindowsByWorker[m.Worker]++
		}
		sc := openStaging(st.marker.Worker, false)
		if sc == nil {
			continue
		}
		merged, missed := mergeMarker(cfg, main, sc, st.marker, mergedKeys, misses, rep)
		if missed {
			if sc = openStaging(st.marker.Worker, true); sc != nil {
				merged, _ = mergeMarker(cfg, main, sc, st.marker, mergedKeys, misses, rep)
			}
		}
		if merged {
			st.merged = true
			cfg.Metrics.Counter(metrics.FleetWindowsDone).Inc()
		}
	}
}

// mergeMarker copies one done marker's findings into the main corpus,
// returning whether every key is now accounted for and whether some key
// was missing from staging (recorded in misses until it resolves). Only
// marker-listed keys are merged — never a staging sweep — so the
// half-minimized strays an aborted window leaves behind stay out of the
// main corpus.
func mergeMarker(cfg Config, main, staging *corpus.Corpus, m *DoneMarker, mergedKeys map[string]bool, misses map[string]string, rep *Report) (all, missed bool) {
	byKey := map[string]*corpus.Entry{}
	for e, err := range staging.Entries() {
		if err == nil {
			byKey[e.Meta.Key] = e
		}
	}
	all = true
	for _, key := range m.Keys {
		if mergedKeys[key] {
			continue
		}
		if main.Has(key) {
			mergedKeys[key] = true
			delete(misses, key)
			rep.Known++
			continue
		}
		e, ok := byKey[key]
		if !ok {
			all, missed = false, true
			misses[key] = fmt.Sprintf("window [%d, %d): key %.12s not in %s's staging corpus", m.Lo, m.Hi, key, m.Worker)
			continue
		}
		src, err := e.Source()
		if err != nil {
			all = false // half-written pair or I/O error: retry next tick
			continue
		}
		if _, err := main.Put(e.Meta, src); err != nil {
			all = false
			fmt.Fprintf(cfg.Log, "fleet: merge %.12s: %v (retrying)\n", key, err)
			continue
		}
		mergedKeys[key] = true
		delete(misses, key)
		rep.Merged++
		cfg.Metrics.Counter(metrics.FleetMergedFindings, "worker", m.Worker).Inc()
		cfg.Events.Emit(events.Event{
			Kind: events.KindMerge, Op: "fleet", Worker: m.Worker,
			Key: key, Class: string(e.Meta.Class), Lo: m.Lo, Hi: m.Hi,
		})
		fmt.Fprintf(cfg.Log, "fleet: merged %s %.12s from %s (window [%d, %d))\n",
			e.Meta.Class, key, m.Worker, m.Lo, m.Hi)
	}
	return all, missed
}

// reclaimExpired harvests leases whose heartbeat went stale: the window
// returns to the pool for any live worker's next pass. Leases of windows
// that already have a done marker are cleaned up silently — the worker
// died (or was killed) between marker and release, and the work stands.
func reclaimExpired(cfg Config, man *Manifest, rep *Report) error {
	ents, err := os.ReadDir(leasesDir(cfg.CorpusDir))
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	// Per-scan lease survey: how many leases are live, how many this scan
	// found stale (and reclaims below), and the oldest live heartbeat —
	// the gauges /healthz summarizes.
	var active, stale int
	var oldest time.Duration
	defer func() {
		cfg.Metrics.Gauge(metrics.FleetActiveLeases).SetInt(int64(active))
		cfg.Metrics.Gauge(metrics.FleetStaleLeases).SetInt(int64(stale))
		cfg.Metrics.Gauge(metrics.FleetHeartbeatAge).Set(oldest.Seconds())
	}()
	for _, de := range ents {
		var lo, hi int64
		if _, err := fmt.Sscanf(de.Name(), "win-%d-%d.json", &lo, &hi); err != nil {
			continue // *.tmp debris or foreign files: not leases
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if windowDone(cfg.CorpusDir, Window{Lo: lo, Hi: hi}) {
			os.Remove(filepath.Join(leasesDir(cfg.CorpusDir), de.Name()))
			continue
		}
		if age := time.Since(info.ModTime()); age <= man.LeaseTTL {
			active++
			if age > oldest {
				oldest = age
			}
			continue
		}
		stale++
		// Expired. The content is best-effort (the worker may have died
		// mid-create); reclaim is by mtime alone.
		var l Lease
		readJSON(filepath.Join(leasesDir(cfg.CorpusDir), de.Name()), &l)
		if err := os.Remove(filepath.Join(leasesDir(cfg.CorpusDir), de.Name())); err != nil {
			if os.IsNotExist(err) {
				continue // the worker finished in the window between stat and remove
			}
			return fmt.Errorf("fleet: reclaim: %w", err)
		}
		rep.Reclaimed++
		cfg.Metrics.Counter(metrics.FleetReclaims).Inc()
		cfg.Events.Emit(events.Event{
			Kind: events.KindReclaim, Op: "fleet", Worker: l.Worker, Lo: lo, Hi: hi,
			Detail: fmt.Sprintf("lease heartbeat stale for > %v; window re-issued", man.LeaseTTL),
		})
		fmt.Fprintf(cfg.Log, "fleet: reclaimed window [%d, %d) from %s (stale heartbeat)\n", lo, hi, l.Worker)
	}
	return nil
}
