// The worker side of the fleet protocol: claim a window, heartbeat the
// lease, run the window as a stride-1 campaign into the worker's staging
// corpus, write the done marker. Workers are deliberately crash-shaped:
// nothing a worker does needs undoing — a killed worker simply stops
// heartbeating, and the coordinator's reclaim puts its window back in the
// pool.
package fleet

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/events"
	"repro/internal/metrics"
)

// WorkerOptions configures RunWorker. Campaign parameters come from the
// fleet manifest, not from here — every worker must agree on them.
type WorkerOptions struct {
	// WorkerID names this worker in leases, done markers, and events
	// ("" = host-pid). IDs also name staging corpora, so a restarted
	// worker reusing its ID reuses its staging dedup state.
	WorkerID string
	// Workers bounds the worker's analysis pipeline pool and, after each
	// window's stream, how many findings minimize at once (<= 0 =
	// GOMAXPROCS).
	Workers int
	// Poll is how long to wait between passes when every remaining window
	// is leased or the manifest has not appeared yet (default 1s).
	Poll time.Duration
	// Events receives the worker's structured stream: a lease event per
	// claimed window, the leased campaigns' own events, and a window-done
	// event per completed window, all carrying the worker id. nil
	// discards.
	Events events.Sink
	// Metrics, when non-nil, accumulates across every window this worker
	// runs: the leased campaigns (and their pipelines) record into it, and
	// a fleet_worker_windows_total counter tracks completed windows. Each
	// finished window also emits a KindMetrics snapshot event, which is
	// how a coordinator ingesting this worker's stream learns its
	// telemetry without sharing memory.
	Metrics *metrics.Registry
}

// WorkerReport summarizes one worker's participation in a fleet run.
type WorkerReport struct {
	WorkerID string
	// Windows counts the windows this worker completed; Analyzed and
	// NewFindings total their campaign reports.
	Windows     int
	Analyzed    int
	NewFindings int
}

// RunWorker joins the fleet rooted at corpusDir and works until the
// fleet's span is fully covered (every window has a done marker) or ctx
// is cancelled. It polls for the manifest, so workers may start before
// the coordinator.
func RunWorker(ctx context.Context, corpusDir string, opts WorkerOptions) (*WorkerReport, error) {
	id := opts.WorkerID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = time.Second
	}
	rep := &WorkerReport{WorkerID: id}

	var man *Manifest
	for {
		var err error
		if man, err = readManifest(corpusDir); err == nil {
			break
		}
		if !os.IsNotExist(err) {
			return rep, err
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return rep, ctx.Err()
		}
	}

	staging := StagingDir(corpusDir, id)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return rep, fmt.Errorf("fleet: staging: %w", err)
	}

	for {
		if !manifestCurrent(corpusDir, man) {
			// The run this worker joined was retired: its span is covered
			// and merged. (Checked before every pass so the coordinator's
			// cleanup — which removes the done markers — can never read as
			// "nothing is done, re-cover the span".)
			return rep, nil
		}
		claimed, remaining, err := workerPass(ctx, corpusDir, staging, id, man, opts, rep)
		if err != nil {
			return rep, err
		}
		if remaining == 0 {
			return rep, nil
		}
		if claimed == 0 {
			// Everything left is leased to someone else. Wait: either they
			// finish (markers appear) or they die (the coordinator reclaims
			// and the next pass claims).
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return rep, ctx.Err()
			}
		}
	}
}

// manifestCurrent reports whether the manifest a worker joined is still
// the open fleet run — not retired, not replaced by a later span's.
func manifestCurrent(corpusDir string, man *Manifest) bool {
	cur, err := readManifest(corpusDir)
	return err == nil && cur.CreatedAt.Equal(man.CreatedAt) && cur.Lo == man.Lo && cur.Hi == man.Hi
}

// workerPass sweeps the window list once, running every window it can
// claim. It returns how many windows it completed this pass and how many
// are still not done (by anyone).
func workerPass(ctx context.Context, corpusDir, staging, id string, man *Manifest, opts WorkerOptions, rep *WorkerReport) (claimed, remaining int, err error) {
	for _, w := range man.windows() {
		if ctx.Err() != nil {
			return claimed, remaining, ctx.Err()
		}
		if windowDone(corpusDir, w) {
			continue
		}
		ok, err := acquireLease(corpusDir, id, w)
		if err != nil {
			return claimed, remaining, err
		}
		if !ok {
			remaining++
			continue
		}
		if err := runWindow(ctx, corpusDir, staging, id, man, w, opts, rep); err != nil {
			// The lease is NOT released: a failed window looks exactly like
			// a crashed worker, and the TTL reclaim path re-issues it. One
			// recovery mechanism, not two.
			return claimed, remaining, err
		}
		claimed++
	}
	return claimed, remaining, nil
}

// runWindow executes one leased window: heartbeat in the background, the
// window campaign into staging, the done marker, then — and only then —
// the lease release. A crash anywhere before the marker leaves the lease
// to expire and the window to be re-run; a crash between marker and
// release is benign, since done markers outrank leases everywhere.
func runWindow(ctx context.Context, corpusDir, staging, id string, man *Manifest, w Window, opts WorkerOptions, rep *WorkerReport) error {
	opts.Events.Emit(events.Event{
		Kind: events.KindLease, Op: "fleet", Worker: id, Lo: w.Lo, Hi: w.Hi,
	})
	sink := workerStamped(opts.Events, id)
	staged, err := corpus.OpenSink(staging, sink)
	if err != nil {
		return err
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(man.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				heartbeat(corpusDir, w)
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	crep, err := campaign.Run(ctx, campaign.Config{
		Window:  w,
		Spec:    man.Spec,
		Workers: opts.Workers,
		Corpus:  staged,
		Events:  sink,
		Metrics: opts.Metrics,
	})
	close(hbStop)
	<-hbDone
	if err != nil {
		return err
	}
	if !manifestCurrent(corpusDir, man) {
		// The run was retired while this window ran — it was reclaimed and
		// re-covered by another worker after this one stalled past the TTL.
		// Drop the (duplicate) result: a marker written now would orphan
		// into the next fleet run's done/ directory.
		os.Remove(leasePath(corpusDir, w.Lo, w.Hi))
		return nil
	}
	marker := DoneMarker{
		Worker:      id,
		Lo:          w.Lo,
		Hi:          w.Hi,
		Analyzed:    crep.Analyzed,
		NewFindings: crep.NewFindings,
		FinishedAt:  time.Now(),
	}
	for _, f := range crep.Findings {
		marker.Keys = append(marker.Keys, f.Key)
	}
	if err := writeJSONAtomic(donePath(corpusDir, w.Lo, w.Hi), marker); err != nil {
		return err
	}
	os.Remove(leasePath(corpusDir, w.Lo, w.Hi))
	opts.Events.Emit(events.Event{
		Kind: events.KindWindowDone, Op: "fleet", Worker: id, Lo: w.Lo, Hi: w.Hi,
		Done: crep.NewFindings, Total: crep.Analyzed,
	})
	rep.Windows++
	rep.Analyzed += crep.Analyzed
	rep.NewFindings += crep.NewFindings
	if opts.Metrics != nil {
		opts.Metrics.Counter("fleet_worker_windows_total").Inc()
		// A snapshot after the window counter moved, so the stream's last
		// KindMetrics per window reflects the window it closed.
		snap := opts.Metrics.Snapshot()
		workerStamped(opts.Events, id).Emit(events.Event{
			Kind: events.KindMetrics, Op: "fleet", Snapshot: &snap,
		})
	}
	return nil
}

// workerStamped wraps a sink so every event the leased campaign emits
// carries the worker's id — the form a coordinator ingesting many worker
// streams needs.
func workerStamped(sink events.Sink, id string) events.Sink {
	if sink == nil {
		return nil
	}
	return func(e events.Event) {
		if e.Worker == "" {
			e.Worker = id
		}
		sink(e)
	}
}
