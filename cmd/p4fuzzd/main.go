// Command p4fuzzd runs the work-leasing campaign fleet: one coordinator
// that owns a span of global campaign indices and any number of workers
// that lease index windows from it, run them as stride-1 campaigns into
// private staging corpora, and hand the findings back for merging. The
// whole protocol is files under <corpus>/fleet/ (see internal/fleet), so
// the fleet needs no network — workers on any machine sharing the corpus
// directory can join.
//
// Usage:
//
//	p4fuzzd -corpus-dir DIR [-n 1000] [-window 0] [-workers 0]
//	        [-seed 1] [-depth 3] [-stmts 5] [-fields 3] [-lattice SPEC]
//	        [-trials 4] [-trials-max 32] [-mutate] [-mutate-frac F]
//	        [-minimize] [-max-per-class 25] [-lease-ttl 1m] [-poll 0]
//	        [-pool 0] [-timeout 0] [-events] [-events-json] [-http ADDR]
//	p4fuzzd -work -corpus-dir DIR [-worker-id ID] [-pool 0] [-poll 0]
//	        [-events] [-events-json] [-http ADDR]
//
// The first form is the coordinator. It opens (or, after a crash, adopts)
// the fleet manifest for the next -n indices after the corpus's frontier,
// spawns -workers local worker processes (0 = none; external workers
// join by running the second form against the same corpus dir), merges
// each completed window's findings into the main corpus, and reclaims
// the leases of workers whose heartbeats go stale — a killed worker
// costs one window's re-run, not the campaign. When the span is covered
// the frontier advances, so consecutive p4fuzzd runs explore consecutive
// spans.
//
// The second form is one worker. Every campaign parameter comes from the
// manifest (workers poll for it, so they may start first); the flags
// cover only identity and local capacity. A worker's staging corpus is
// keyed by -worker-id, so a restarted worker reusing its id also reuses
// its dedup memory.
//
// Local workers are spawned with -events-json and their stdout streams
// are ingested: each line is decoded and re-emitted on the coordinator's
// own stream, already stamped with the worker's id. -events renders that
// merged stream as text on stderr; -events-json emits it as one JSON
// object per line on stdout (repro.Event marshalled verbatim — the same
// contract as p4fuzz -events-json) and moves the final report to stderr.
//
// -http ADDR serves live introspection while the run is up: /metrics
// (Prometheus text), /metrics.json (the same snapshot as JSON), /healthz
// (fleet liveness — 200 while the manifest is open and the coordinator's
// scan loop is fresh, 503 otherwise), and the standard /debug/pprof/
// endpoints. ADDR may be ":0" to pick a free port; the bound address is
// printed to stderr. The coordinator's view merges its own registry with
// the per-window snapshots workers ship on their event streams, and the
// merged snapshot is also persisted to <corpus>/metrics.json when the
// run ends. In -work mode the endpoints expose that worker alone, and
// /healthz only reflects the shared protocol files (manifest, frontier),
// not coordinator liveness.
//
// Exit status 0 when the span completes, 1 on an aborted or failed run,
// 2 on usage errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("p4fuzzd", flag.ExitOnError)
	workMode := fs.Bool("work", false, "run as a fleet worker instead of the coordinator")
	corpusDir := fs.String("corpus-dir", "", "main corpus directory; the fleet protocol lives under <dir>/fleet (required)")
	workerID := fs.String("worker-id", "", "worker identity for -work mode (default host-pid; also names the staging corpus)")
	pool := fs.Int("pool", 0, "per-worker analysis pipeline size (0 = GOMAXPROCS)")
	poll := fs.Duration("poll", 0, "coordinator scan / worker retry interval (0 = protocol default)")
	n := fs.Int64("n", 1000, "global indices this fleet run covers, starting at the corpus frontier")
	window := fs.Int64("window", 0, "lease window size in indices (0 = n/8)")
	workers := fs.Int("workers", 0, "local worker processes to spawn (0 = none; external -work processes join)")
	seed := fs.Int64("seed", 1, "base generation seed (program i uses seed+i, fleet-wide)")
	depth := fs.Int("depth", 3, "max conditional nesting in generated programs")
	stmts := fs.Int("stmts", 5, "max statements per generated block")
	fields := fs.Int("fields", 3, "low/high header fields in generated programs")
	latSpec := fs.String("lattice", "", "campaign lattice: two-point (default), diamond, chain:N, nparty:N, powerset:N, or product:a,b")
	trials := fs.Int("trials", 0, "base NI trials per program (0 = campaign default)")
	trialsMax := fs.Int("trials-max", 0, "adaptive NI ceiling for rejected programs (0 = campaign default)")
	niOracle := fs.String("ni-oracle", "", "NI backend, manifest-wide: adaptive (default), randomized, or exhaustive")
	exhaustBudget := fs.Uint64("exhaust-budget", 0, "exhaustive oracle: assignment ceiling per observer (0 = 2^16)")
	exhaustProbes := fs.Int("exhaust-probes", 0, "exhaustive oracle: public-input probes when only the secret space fits (0 = derived)")
	mutate := fs.Bool("mutate", false, "mutate staged corpus findings for half of each worker's jobs")
	mutateFrac := fs.Float64("mutate-frac", 0, "fraction of jobs mutated under -mutate (0 = 0.5)")
	minimize := fs.Bool("minimize", false, "shrink findings to minimal reproducers before persisting")
	maxPerClass := fs.Int("max-per-class", 0, "findings processed per class per window (0 = campaign default, negative = unlimited)")
	leaseTTL := fs.Duration("lease-ttl", time.Minute, "reclaim a window when its lease heartbeat is staler than this")
	timeout := fs.Duration("timeout", 0, "overall run timeout (0 = none)")
	liveEvents := fs.Bool("events", false, "render the merged event stream as text on stderr")
	jsonEvents := fs.Bool("events-json", false, "emit the merged event stream as one JSON object per line on stdout (the report moves to stderr)")
	httpAddr := fs.String("http", "", "serve /metrics, /metrics.json, /healthz, and /debug/pprof on this address (\":0\" = free port; \"\" = off)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "p4fuzzd: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *corpusDir == "" {
		fmt.Fprintln(os.Stderr, "p4fuzzd: -corpus-dir is required (the fleet protocol lives under it)")
		return 2
	}

	// SIGINT/SIGTERM cancel the run cleanly: the coordinator leaves the
	// manifest for a successor to adopt, workers leave their leases to
	// expire — exactly the crash-shaped exits the protocol is built for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sink, reportOut := makeSink(*liveEvents, *jsonEvents)

	// Every mode owns a registry; the coordinator additionally merges the
	// snapshots its local workers ship over their event streams into a
	// View, so /metrics shows the whole fleet, worker-labeled.
	reg := metrics.NewRegistry()
	view := metrics.NewView(reg)
	if *httpAddr != "" {
		bound, err := serveHTTP(*httpAddr, *corpusDir, view, reg, *leaseTTL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzzd: -http %s: %v\n", *httpAddr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "p4fuzzd: serving /metrics /metrics.json /healthz /debug/pprof on http://%s\n", bound)
	}

	if *workMode {
		rep, err := fleet.RunWorker(ctx, *corpusDir, fleet.WorkerOptions{
			WorkerID: *workerID,
			Workers:  *pool,
			Poll:     *poll,
			Log:      os.Stderr,
			Events:   sink,
			Metrics:  reg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzzd: worker %s: %v\n", rep.WorkerID, err)
			return 1
		}
		fmt.Fprintf(reportOut, "worker %s: %d windows, %d analyzed, %d new findings\n",
			rep.WorkerID, rep.Windows, rep.Analyzed, rep.NewFindings)
		return 0
	}

	gcfg := gen.Config{
		MaxDepth:    *depth,
		MaxStmts:    *stmts,
		NumFields:   *fields,
		WithActions: true,
		Lattice:     *latSpec,
	}
	if err := gcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzzd: %v\n", err)
		return 2
	}

	// Local workers are separate processes on purpose: the churn story —
	// kill -9 a worker, watch its window get reclaimed — only means
	// something if a worker's death cannot take the coordinator with it.
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		if err := spawnWorker(ctx, &wg, *corpusDir, fmt.Sprintf("local-%d", i), *pool, sink, view); err != nil {
			fmt.Fprintf(os.Stderr, "p4fuzzd: %v\n", err)
			return 2
		}
	}

	spec := campaign.Spec{
		Seed: *seed,
		Gen:  gcfg,
		Budget: pipeline.Budget{
			Trials:        *trials,
			TrialsMax:     *trialsMax,
			Oracle:        *niOracle,
			ExhaustBudget: *exhaustBudget,
			ExhaustProbes: *exhaustProbes,
		},
		Mutate:      *mutate,
		MutateFrac:  *mutateFrac,
		Minimize:    *minimize,
		MaxPerClass: *maxPerClass,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzzd: %v\n", err)
		return 2
	}

	rep, err := fleet.RunCoordinator(ctx, fleet.Config{
		CorpusDir:  *corpusDir,
		N:          *n,
		WindowSize: *window,
		Spec:       spec,
		LeaseTTL:   *leaseTTL,
		Poll:       *poll,
		Log:        os.Stderr,
		Events:     sink,
		Metrics:    reg,
	})
	// Workers exit on their own once the manifest is retired (success) or
	// their context dies (cancellation); wait so their final events land.
	wg.Wait()
	// Persist the fleet-merged telemetry next to the corpus: the
	// coordinator's own series plus every worker's last shipped snapshot,
	// overlaid on whatever series other processes already left there.
	if werr := metrics.UpdateFile(filepath.Join(*corpusDir, "metrics.json"), view.Snapshot()); werr != nil {
		fmt.Fprintf(os.Stderr, "p4fuzzd: metrics.json: %v\n", werr)
	}
	if rep != nil {
		fmt.Fprintf(reportOut, "fleet: span [%d, %d) in %d windows of %d: %d merged, %d known, %d leases reclaimed, %v\n",
			rep.Lo, rep.Hi, rep.Windows, rep.WindowSize, rep.Merged, rep.Known, rep.Reclaimed, rep.Elapsed.Round(time.Millisecond))
		for worker, n := range rep.WindowsByWorker {
			fmt.Fprintf(reportOut, "  %s: %d windows\n", worker, n)
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(reportOut, "  merge error: %s\n", e)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4fuzzd: %v\n", err)
		return 1
	}
	if len(rep.Errors) > 0 {
		return 1
	}
	return 0
}

// serveHTTP binds addr and serves the introspection surface in the
// background for the life of the process: /metrics and /metrics.json
// from the merged view, /healthz from the registry's coordinator gauges
// plus the on-disk protocol files, and net/http/pprof on its usual
// paths. It returns the bound address so ":0" is usable in scripts.
func serveHTTP(addr, corpusDir string, view *metrics.View, reg *metrics.Registry, leaseTTL time.Duration) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.ExpositionHandler(view.Snapshot))
	mux.Handle("/metrics.json", metrics.JSONHandler(view.Snapshot))
	mux.Handle("/healthz", &fleet.HealthChecker{
		CorpusDir: corpusDir,
		Metrics:   reg,
		// The scan loop ticks at least once per poll interval, which is
		// far below the lease TTL — so a scan older than the TTL means
		// the coordinator is wedged, not merely slow.
		MaxScanAge: leaseTTL,
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// makeSink builds the process's event sink — text to stderr, JSON lines
// to stdout, or discard — and picks where the final report goes (stderr
// when stdout is the JSON stream).
func makeSink(text, asJSON bool) (events.Sink, *os.File) {
	switch {
	case asJSON:
		var mu sync.Mutex
		enc := json.NewEncoder(os.Stdout)
		return func(e events.Event) {
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(e)
		}, os.Stderr
	case text:
		var mu sync.Mutex
		return func(e events.Event) {
			if line := e.Text(); line != "" {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintln(os.Stderr, line)
			}
		}, os.Stdout
	default:
		return nil, os.Stdout
	}
}

// spawnWorker re-execs this binary in -work mode and ingests its event
// stream: the worker writes one JSON event per stdout line, the
// coordinator decodes each and re-emits it on its own sink, and any
// KindMetrics event's snapshot is absorbed into the coordinator's merged
// view — that stream is the only channel a worker's telemetry travels
// over. Lines that do not decode (a stray print, a truncated crash line)
// pass through to stderr rather than being lost.
func spawnWorker(ctx context.Context, wg *sync.WaitGroup, corpusDir, id string, pool int, sink events.Sink, view *metrics.View) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("spawn %s: %w", id, err)
	}
	cmd := exec.CommandContext(ctx, exe,
		"-work",
		"-corpus-dir", corpusDir,
		"-worker-id", id,
		"-pool", fmt.Sprint(pool),
		"-events-json",
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("spawn %s: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", id, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			var probe struct {
				Kind string `json:"kind"`
			}
			if json.Unmarshal(line, &probe) == nil && probe.Kind != "" {
				var e events.Event
				if json.Unmarshal(line, &e) == nil {
					if e.Kind == events.KindMetrics && e.Snapshot != nil {
						view.Absorb(e.Worker, *e.Snapshot)
					}
					sink.Emit(e)
					continue
				}
			}
			fmt.Fprintf(os.Stderr, "[%s] %s\n", id, line)
		}
		cmd.Wait()
	}()
	return nil
}
