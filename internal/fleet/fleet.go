// Package fleet runs a campaign as a work-leasing fleet of processes: one
// coordinator owns a span of global campaign
// indices, carves it into windows, and leases each window [lo, hi) to
// whichever worker claims it first; workers run the leased window as a
// campaign run (campaign.Config.Window) into their own staging
// corpus and mark it done; the coordinator merges each completed window's
// findings into the main corpus and reclaims the leases of workers whose
// heartbeats go stale, so a killed worker costs one window's re-run, not
// the campaign.
//
// The whole protocol is files under <corpus>/fleet/ — no sockets, no
// daemons workers must find, any process that can see the directory can
// join:
//
//	fleet/manifest.json        the fleet run: campaign parameters, the
//	                           span [lo, hi), window size, lease TTL.
//	                           Written atomically by the coordinator;
//	                           workers poll for it and take every
//	                           parameter from it, so a worker needs only
//	                           the corpus dir and an identity.
//	fleet/leases/win-L-H.json  one claimed window. Created with
//	                           O_CREATE|O_EXCL — the filesystem is the
//	                           lock — and carrying the worker id; the
//	                           file's mtime is the worker's heartbeat,
//	                           refreshed while the window runs. Only the
//	                           coordinator removes other workers' leases,
//	                           and only when the heartbeat is older than
//	                           the TTL.
//	fleet/done/win-L-H.json    one completed window: worker id, analyzed
//	                           and finding counts, and the dedup keys of
//	                           the window's new findings — the merge
//	                           list. Written atomically, so a marker
//	                           either exists completely or not at all.
//	fleet/staging/<worker>/    the worker's private corpus. Workers never
//	                           write the main corpus; the coordinator
//	                           copies done-marker keys out of staging, so
//	                           a crashed worker's half-minimized strays
//	                           are never merged.
//	fleet/frontier.json        the next unexplored global index, advanced
//	                           when a fleet run completes — how the next
//	                           fleet run knows where the search frontier
//	                           is, and the only way a search continues
//	                           across runs.
//
// Merging by done-marker key (rather than sweeping staging directories)
// is what keeps the fleet's corpus equal to a single run's over the same
// span: an aborted window persists its findings un-minimized
// (cancellation must not sit in a delta-debug loop), so a killed worker's
// staging holds strays under keys a single run would never produce. Those strays
// stay in staging; the reclaimed window is re-run by a live worker, whose
// marker lists the properly minimized keys.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
)

// Manifest is the fleet run's contract, written by the coordinator and
// read by every worker: the campaign parameters (so all workers generate
// the same program for the same index) and the leasing geometry.
type Manifest struct {
	// Lo and Hi delimit the fleet run's span of global campaign indices.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Window is the lease granularity: windows are [Lo, Lo+Window),
	// [Lo+Window, Lo+2*Window), ... (the last one clipped to Hi).
	Window int64 `json:"window"`
	// Spec is the campaign every worker runs, as the coordinator was
	// given it. Seed and Gen fix the index → program mapping fleet-wide,
	// and the NI oracle is part of the campaign identity the same way:
	// verdict classes depend on it. Note that under Mutate, workers draw
	// seeds from their own staging corpora, so a mutating fleet is not
	// partition-exact with a single run over the same span.
	campaign.Spec
	// LeaseTTL is how stale a lease's heartbeat may grow before the
	// coordinator reclaims the window.
	LeaseTTL time.Duration `json:"lease_ttl"`
	// CreatedAt is when the coordinator opened the fleet run.
	CreatedAt time.Time `json:"created_at"`
}

// Lease is the content of one lease file. The claim itself is the file's
// O_EXCL creation and the heartbeat its mtime; the content exists so
// humans and events can say whose lease it is — a lease whose content was
// lost to a crash mid-write still locks, heartbeats, and expires by
// mtime.
type Lease struct {
	Worker   string    `json:"worker"`
	Lo       int64     `json:"lo"`
	Hi       int64     `json:"hi"`
	LeasedAt time.Time `json:"leased_at"`
}

// DoneMarker records one completed window: who ran it, what it analyzed,
// and — the part the coordinator acts on — the dedup keys of the new
// findings its run persisted to the worker's staging corpus.
type DoneMarker struct {
	Worker      string    `json:"worker"`
	Lo          int64     `json:"lo"`
	Hi          int64     `json:"hi"`
	Analyzed    int       `json:"analyzed"`
	NewFindings int       `json:"new_findings"`
	Keys        []string  `json:"keys,omitempty"`
	FinishedAt  time.Time `json:"finished_at"`
}

// frontier is the cross-run search cursor: the first global index no
// fleet run has covered.
type frontier struct {
	NextIndex int64     `json:"next_index"`
	UpdatedAt time.Time `json:"updated_at"`
}

func fleetDir(corpusDir string) string { return filepath.Join(corpusDir, "fleet") }
func manifestPath(corpusDir string) string {
	return filepath.Join(fleetDir(corpusDir), "manifest.json")
}
func leasesDir(corpusDir string) string { return filepath.Join(fleetDir(corpusDir), "leases") }
func doneDir(corpusDir string) string   { return filepath.Join(fleetDir(corpusDir), "done") }
func frontierPath(corpusDir string) string {
	return filepath.Join(fleetDir(corpusDir), "frontier.json")
}

// StagingDir is the private corpus directory of one worker.
func StagingDir(corpusDir, workerID string) string {
	return filepath.Join(fleetDir(corpusDir), "staging", workerID)
}

func windowName(lo, hi int64) string { return fmt.Sprintf("win-%d-%d.json", lo, hi) }

func leasePath(corpusDir string, lo, hi int64) string {
	return filepath.Join(leasesDir(corpusDir), windowName(lo, hi))
}

func donePath(corpusDir string, lo, hi int64) string {
	return filepath.Join(doneDir(corpusDir), windowName(lo, hi))
}

// windows enumerates the manifest's lease windows in index order.
func (m *Manifest) windows() []Window {
	var out []Window
	for lo := m.Lo; lo < m.Hi; lo += m.Window {
		hi := lo + m.Window
		if hi > m.Hi {
			hi = m.Hi
		}
		out = append(out, Window{Lo: lo, Hi: hi})
	}
	return out
}

// Window is one lease's index range [Lo, Hi): the window the leasing
// worker's campaign run covers.
type Window = campaign.Window

// writeJSONAtomic is the protocol's only write primitive: marshal,
// write to a temp file, rename. Every protocol file either exists whole
// or not at all, so a worker killed mid-write never leaves a truncated
// protocol file behind.
func writeJSONAtomic(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// readJSON decodes one protocol file; a missing file returns os.ErrNotExist.
func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("fleet: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}

// readManifest loads the fleet manifest, reporting os.ErrNotExist when no
// fleet run is open.
func readManifest(corpusDir string) (*Manifest, error) {
	var m Manifest
	if err := readJSON(manifestPath(corpusDir), &m); err != nil {
		return nil, err
	}
	if m.Window <= 0 || m.Hi <= m.Lo {
		return nil, fmt.Errorf("fleet: manifest %s has an empty span or window", manifestPath(corpusDir))
	}
	return &m, nil
}

// loadFrontier reads the cross-run cursor; missing is index 0, and
// corrupt is index 0 with a warning, never an error: re-covering costs
// time, dedup absorbs the repeats.
func loadFrontier(corpusDir string, sink events.Sink) int64 {
	var f frontier
	err := readJSON(frontierPath(corpusDir), &f)
	switch {
	case err == nil:
		return f.NextIndex
	case os.IsNotExist(err):
		return 0
	default:
		sink.Emit(events.Event{
			Kind: events.KindWarning, Op: "fleet", Path: frontierPath(corpusDir),
			Detail: fmt.Sprintf("corrupt fleet frontier (%v): starting from index 0 — the span will be re-covered and dedup absorbs repeats", err),
		})
		return 0
	}
}

// acquireLease claims one window for a worker. The O_EXCL create is the
// entire mutual exclusion story: exactly one claimant's create succeeds,
// everyone else sees os.ErrExist. The lease content is best-effort — see
// Lease.
func acquireLease(corpusDir, workerID string, w Window) (bool, error) {
	f, err := os.OpenFile(leasePath(corpusDir, w.Lo, w.Hi), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("fleet: acquire lease: %w", err)
	}
	raw, _ := json.MarshalIndent(Lease{Worker: workerID, Lo: w.Lo, Hi: w.Hi, LeasedAt: time.Now()}, "", "  ")
	_, werr := f.Write(append(raw, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// The claim stands (the file exists); only the label is damaged.
		// Reclaim-by-mtime handles it like any other lease.
		return true, nil
	}
	return true, nil
}

// heartbeat refreshes a lease's liveness signal. Failing is fine — it
// means the lease was reclaimed (the worker stalled past the TTL) or the
// run is over; the worker finds out when it tries to finish.
func heartbeat(corpusDir string, w Window) {
	now := time.Now()
	os.Chtimes(leasePath(corpusDir, w.Lo, w.Hi), now, now)
}

// windowDone reports whether a window has a done marker.
func windowDone(corpusDir string, w Window) bool {
	_, err := os.Stat(donePath(corpusDir, w.Lo, w.Hi))
	return err == nil
}
