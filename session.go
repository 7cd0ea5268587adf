// Session: the first-class handle over the campaign stack. One configured
// object — lattice, corpus, NI budgets, worker count, set once through
// functional options — whose methods run every corpus-centric operation
// (Campaign, Replay, Triage, Retire, Compact, Minimize) against the same
// configuration, with a structured event stream for live progress.
package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/shrink"
	"repro/internal/triage"
)

// Event is one observation from a running Session operation: a job
// completing, a finding persisting, replay drift, a triage cluster, a
// retirement, or a coarse progress tick. See EventKind for the vocabulary.
type Event = events.Event

// EventKind discriminates events.
type EventKind = events.Kind

// Event kinds, in the order an operation tends to emit them.
const (
	EventJobDone  = events.KindJobDone
	EventFinding  = events.KindFinding
	EventDrift    = events.KindDrift
	EventCluster  = events.KindCluster
	EventRetired  = events.KindRetired
	EventProgress = events.KindProgress
	// EventWarning is a recoverable anomaly an operation worked around —
	// e.g. a corrupt corpus index rebuilt from a directory rescan, or
	// events dropped by a slow listener (Done carries the drop count,
	// emitted just before EventOpEnd).
	EventWarning = events.KindWarning
	// EventOpStart and EventOpEnd frame every Session operation's stream:
	// a consumer that saw EventOpStart but no EventOpEnd knows the stream
	// was cut short. Both ride a guaranteed path that displaces older
	// buffered events instead of being dropped.
	EventOpStart = events.KindOpStart
	EventOpEnd   = events.KindOpEnd
	// Fleet lifecycle kinds (emitted by internal/fleet coordinators):
	// a window leased, an expired lease reclaimed, a window completed,
	// and a worker finding merged into the main corpus.
	EventLease      = events.KindLease
	EventReclaim    = events.KindReclaim
	EventWindowDone = events.KindWindowDone
	EventMerge      = events.KindMerge
	// EventMetrics is a periodic telemetry snapshot; Event.Snapshot
	// carries the emitting process's metrics registry.
	EventMetrics = events.KindMetrics
)

// MetricsSnapshot is a point-in-time copy of a session's (or fleet
// process's) metrics registry: sorted counter/gauge/histogram samples that
// marshal to stable JSON (the metrics.json schema) and render to the
// Prometheus text exposition via WriteExposition.
type MetricsSnapshot = metrics.Snapshot

// Corpus is a cached, validated handle over an on-disk finding corpus:
// iter.Seq2-based iteration (Entries), filtered queries (Select), Stats,
// and single-parse-per-entry caching of programs and shape fingerprints.
// Every campaign-stack operation (Replay, Triage, Retire, the campaign
// seed pool) opens one such handle and serves all its reads through the
// cache instead of re-walking the directory per consumer.
type Corpus = corpus.Corpus

// CorpusEntry is one cached finding pair; CorpusFilter selects entries by
// class, cited rule, origin, or campaign lattice; CorpusStats summarizes
// a corpus.
type (
	CorpusEntry  = corpus.Entry
	CorpusFilter = corpus.Filter
	CorpusStats  = corpus.Stats
)

// CorpusMeta is the verdict metadata persisted next to each finding.
type CorpusMeta = corpus.Meta

// OpenCorpus opens dir as a finding corpus, reading and caching every
// entry. A missing findings directory is an empty corpus; corrupt entries
// are kept in the iteration with their load errors, so callers decide
// whether they are fatal.
func OpenCorpus(dir string) (*Corpus, error) { return corpus.Open(dir) }

// GenConfig configures the random-program generator (see internal/gen);
// the zero value means gen.DefaultConfig.
type GenConfig = gen.Config

// Session is one configured handle over the campaign stack. Configure it
// once with NewSession's options, then run operations; all of them share
// the lattice, NI budgets, and worker pool, report through the same event
// stream (Events), and read and write the corpus through one shared
// handle (Corpus) — the directory is opened exactly once per session, no
// matter how many operations run.
//
// Operations are safe to run one at a time; a Session does not serialize
// concurrent method calls (two campaigns over one corpus directory would
// race on the corpus regardless of process structure). Close the session
// after the last operation returns to release the event channel.
type Session struct {
	// spec is the campaign the session runs and the NI budget and oracle
	// every operation checks programs with.
	spec       campaign.Spec
	latSpec    string
	workers    int
	corpusDir  string
	promoteDir string
	maxNovelty int

	eventBuf int
	mu       sync.Mutex
	events   chan Event
	closed   bool
	dropped  atomic.Int64

	// metrics is the session's registry, threaded through every operation:
	// campaigns, their pipelines, and NI experiments all record into it,
	// so counts accumulate across the session's operations. Snapshots are
	// exposed live via Metrics() and persisted as <corpus>/metrics.json at
	// every op-end.
	metrics *metrics.Registry

	// corp is the session's one corpus handle, opened lazily by Corpus()
	// and threaded through every operation: Campaign, Replay, Triage,
	// Retire, and Compact all read through its metadata index and its
	// source/parse/fingerprint caches, and the write-side operations keep
	// it coherent in place. The directory is never re-opened mid-session.
	corp *Corpus
}

// SessionOption configures a Session under construction.
type SessionOption func(*Session)

// WithCorpus sets the persistent corpus directory every operation reads
// and writes. Without it, Campaign keeps findings in memory only and the
// corpus-reading operations (Replay, Triage, Retire) have nothing to
// open — NewSession accepts that, the methods report it.
func WithCorpus(dir string) SessionOption { return func(s *Session) { s.corpusDir = dir } }

// WithLattice sets the campaign lattice spec ("two-point", "diamond",
// "chain:N", "nparty:N", "powerset:N", "product:a,b"); generated programs
// are annotated against it and checked under it. The generator's shape
// knobs keep their defaults (or whatever WithGenConfig set) — the spec
// overrides the lattice alone, regardless of option order.
func WithLattice(spec string) SessionOption { return func(s *Session) { s.latSpec = spec } }

// WithGenConfig sets the whole generator configuration (shape knobs and
// lattice together); a WithLattice spec, given in either order, overrides
// just the lattice.
func WithGenConfig(g GenConfig) SessionOption { return func(s *Session) { s.spec.Gen = g } }

// WithSeed sets the campaign seed: global index i generates its program
// from seed+i and seeds its NI experiment with seed+i.
func WithSeed(seed int64) SessionOption { return func(s *Session) { s.spec.Seed = seed } }

// WithWorkers bounds the analysis worker pool and, in a campaign, how many
// findings minimize at once (<= 0 = GOMAXPROCS).
func WithWorkers(n int) SessionOption { return func(s *Session) { s.workers = n } }

// WithNIBudget sets the base NI trials per program and the adaptive
// escalation ceiling for IFC-rejected programs, for campaigns and batch
// checks. A zero takes the default: 4 trials, a ceiling of 8 × trials; a
// ceiling below trials disables adaptation. Without this option they run
// the default 4/32. Replay, Retire and Compact do not read it: each
// finding is judged under the budget its metadata records, or under the
// default 4/32 when it records none.
func WithNIBudget(trials, max int) SessionOption {
	return func(s *Session) { s.spec.Trials, s.spec.TrialsMax = trials, max }
}

// WithNIOracle selects the noninterference backend for every operation:
// "adaptive" (the default — randomized sampling with escalation on
// IFC-rejected programs), "randomized" (flat sampling, no escalation), or
// "exhaustive" (internal/exhaust: enumerate every secret assignment and
// return proof-grade proved-secure / proved-insecure verdicts, falling
// back to sampling when the secret space exceeds the budget). "" keeps
// the default. NewSession rejects unknown names eagerly.
func WithNIOracle(name string) SessionOption { return func(s *Session) { s.spec.Oracle = name } }

// WithExhaustBudget bounds the exhaustive oracle's enumeration: budget is
// the assignment ceiling per observer (0 = the default 2^16), probes the
// number of public-input probes when only the secret space fits (0 =
// derived from the budget). No effect under the sampling oracles.
func WithExhaustBudget(budget uint64, probes int) SessionOption {
	return func(s *Session) { s.spec.ExhaustBudget, s.spec.ExhaustProbes = budget, probes }
}

// WithMutation enables the coverage-guided loop: frac of the campaign's
// jobs become AST-level mutants of corpus findings (0 = the default 0.5).
func WithMutation(frac float64) SessionOption {
	return func(s *Session) { s.spec.Mutate, s.spec.MutateFrac = true, frac }
}

// WithMinimize shrinks each finding to the smallest program reproducing
// its class before dedup and persistence.
func WithMinimize() SessionOption { return func(s *Session) { s.spec.Minimize = true } }

// WithMaxPerClass caps findings processed per class per campaign run
// (0 = default 25, negative = unlimited).
func WithMaxPerClass(n int) SessionOption { return func(s *Session) { s.spec.MaxPerClass = n } }

// WithMaxNovelty caps the triage report's seed-novelty ranking
// (0 = default 10, negative = unlimited).
func WithMaxNovelty(n int) SessionOption { return func(s *Session) { s.maxNovelty = n } }

// WithPromoteDir sets the retired-corpus directory Retire promotes
// drifted findings into ("" = <corpus>/../retired-corpus).
func WithPromoteDir(dir string) SessionOption { return func(s *Session) { s.promoteDir = dir } }

// WithEventBuffer sets the Events channel's buffer (default 1024). A full
// buffer drops events rather than stalling the engines; Dropped counts
// the loss.
func WithEventBuffer(n int) SessionOption { return func(s *Session) { s.eventBuf = n } }

// NewSession builds a configured Session. It validates the configuration
// eagerly — an unresolvable lattice spec or an unknown NI oracle fails
// here, not minutes into a campaign.
func NewSession(opts ...SessionOption) (*Session, error) {
	s := &Session{eventBuf: 1024, metrics: metrics.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	// Defaults first, lattice override second: WithLattice alone must not
	// zero the shape knobs (a {Lattice: spec} config is not "the default
	// shape with a taller lattice" — it is an action-free generator).
	if s.spec.Gen == (gen.Config{}) {
		s.spec.Gen = gen.DefaultConfig()
	}
	if s.latSpec != "" {
		s.spec.Gen.Lattice = s.latSpec
	}
	if err := s.spec.Gen.Validate(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if s.spec.MutateFrac < 0 || s.spec.MutateFrac > 1 {
		return nil, fmt.Errorf("session: mutation fraction %v out of [0, 1] (0 = the default 0.5)", s.spec.MutateFrac)
	}
	if err := s.spec.Validate(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return s, nil
}

// Events returns the session's structured event stream. Call it before
// starting an operation; events from operations started earlier were
// discarded. The channel is buffered (WithEventBuffer); when a listener
// falls behind, events are dropped — counted by Dropped — rather than
// stalling the engines, so ranging over the channel concurrently with the
// operation is always safe. Close closes the channel.
func (s *Session) Events() <-chan Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events == nil && !s.closed {
		s.events = make(chan Event, s.eventBuf)
	}
	return s.events
}

// Dropped reports how many events were discarded because the Events
// buffer was full.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Close closes the event stream (a convenient form is defer s.Close()
// next to NewSession). It is safe to call at any time, including from
// the event-listener goroutine while an operation is still running — the
// operation continues, its remaining events are discarded.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.events != nil {
		close(s.events)
	}
	return nil
}

// sink adapts the event channel for the engines: non-blocking sends into
// the buffer, drops counted. A session nobody listens to emits nothing.
// Each send holds the session lock, so a concurrent Close never races a
// send onto the closed channel; events are coarse enough (one per
// analyzed program at most) that the lock is noise next to the analysis.
func (s *Session) sink() events.Sink {
	s.mu.Lock()
	listening := s.events != nil && !s.closed
	s.mu.Unlock()
	if !listening {
		return nil
	}
	return func(e Event) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return
		}
		select {
		case s.events <- e:
		default:
			s.dropped.Add(1)
		}
	}
}

// emitCritical delivers e even when the buffer is full, by displacing the
// oldest buffered events (each counted as dropped) until the send lands.
// Op framing and the drop-count warning use this path: a stream missing
// its op-end, or missing the warning that says events were lost, would
// make an incomplete stream look complete. The displacement loop is
// bounded — with an unbuffered channel and no receiver, the event itself
// is counted dropped rather than spinning.
func (s *Session) emitCritical(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events == nil || s.closed {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	for i := 0; i <= cap(s.events); i++ {
		select {
		case s.events <- e:
			return
		default:
		}
		select {
		case <-s.events:
			s.dropped.Add(1)
		default:
		}
	}
	s.dropped.Add(1)
}

// startOp frames one operation's event stream: an op-start event now, and
// the returned finish func persists the metrics snapshot, then emits —
// when the listener lost events since op-start — a warning carrying the
// drop count, then the op-end event with the outcome detail. Framing
// events are never dropped (see emitCritical), so a consumer that saw
// op-end without a drop warning holds the operation's complete stream,
// a failed snapshot write's warning included.
func (s *Session) startOp(op string) func(detail string) {
	before := s.dropped.Load()
	t0 := time.Now()
	s.emitCritical(Event{Kind: events.KindOpStart, Op: op})
	return func(detail string) {
		s.metrics.Histogram("session_op_seconds", metrics.DurationBuckets, "op", op).ObserveDuration(time.Since(t0))
		s.writeMetricsSnapshot(op)
		if d := s.dropped.Load() - before; d > 0 {
			s.emitCritical(Event{
				Kind: events.KindWarning, Op: op, Done: int(d),
				Detail: fmt.Sprintf("%d events dropped by a slow listener — this stream is incomplete", d),
			})
		}
		s.emitCritical(Event{Kind: events.KindOpEnd, Op: op, Detail: detail})
	}
}

// Metrics returns a point-in-time snapshot of the session's telemetry:
// job/verdict/finding counters, per-stage pipeline histograms, NI budget
// spend, and per-operation duration histograms, accumulated across every
// operation this session has run.
func (s *Session) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// writeMetricsSnapshot persists the registry as <corpus>/metrics.json
// (atomically, temp+rename) so every run leaves a machine-diffable
// telemetry artifact next to its findings. Sessions without a corpus
// directory have nowhere durable to write; a write failure costs the
// artifact, never the operation, and is reported as a warning of op.
func (s *Session) writeMetricsSnapshot(op string) {
	if s.corpusDir == "" {
		return
	}
	// Merge-on-write (UpdateFile): this session overwrites only its own
	// series, so telemetry another process left in the artifact — a fleet
	// run's worker-labeled counters, say — survives a later triage pass.
	path := filepath.Join(s.corpusDir, "metrics.json")
	err := os.MkdirAll(s.corpusDir, 0o755)
	if err == nil {
		err = metrics.UpdateFile(path, s.metrics.Snapshot())
	}
	if err != nil {
		s.sink().Emit(Event{
			Kind: events.KindWarning, Op: op, Path: path,
			Detail: fmt.Sprintf("%v (metrics snapshot lost)", err),
		})
	}
}

// opOutcome renders an op-end detail: the error when the operation
// failed, the summary otherwise.
func opOutcome(err error, summary string) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return summary
}

// Campaign runs streaming differential fuzzing over the global campaign
// indices [0, n) under the session's configuration: lazily
// generated (and, with WithMutation, corpus-mutated) programs flow
// through the analysis pipeline; interesting ones are deduplicated,
// optionally minimized, and persisted to the session corpus — or, without
// WithCorpus, kept in memory on the report. Report.OK() is false iff the
// run found an implementation defect. Job-done, finding, and progress
// events stream to Events while it runs.
func (s *Session) Campaign(ctx context.Context, n int) (*CampaignReport, error) {
	var corp *Corpus
	if s.corpusDir != "" {
		var err error
		if corp, err = s.Corpus(); err != nil {
			return nil, err
		}
	}
	finish := s.startOp("campaign")
	rep, err := campaign.Run(ctx, campaign.Config{
		Window:  campaign.Window{Lo: 0, Hi: int64(n)},
		Spec:    s.spec,
		Workers: s.workers,
		Corpus:  corp,
		Events:  s.sink(),
		Metrics: s.metrics,
	})
	summary := ""
	if rep != nil {
		summary = fmt.Sprintf("analyzed %d, %d new findings", rep.Analyzed, rep.NewFindings)
	}
	finish(opOutcome(err, summary))
	return rep, err
}

// corpusFor is the corpus handle for a corpus-reading operation: without
// WithCorpus there is nothing to open, and silently scanning the current
// directory would mask a misconfigured session.
func (s *Session) corpusFor(op string) (*Corpus, error) {
	if s.corpusDir == "" {
		return nil, fmt.Errorf("session: %s needs a corpus (WithCorpus)", op)
	}
	return s.Corpus()
}

// Replay re-checks every finding in the session corpus against the
// current checker stack — the corpus as a regression suite. Drift events
// stream to Events; the report lists every mismatch.
func (s *Session) Replay(ctx context.Context) (*ReplayReport, error) {
	corp, err := s.corpusFor("Replay")
	if err != nil {
		return nil, err
	}
	finish := s.startOp("replay")
	rep, err := campaign.Replay(ctx, campaign.ReplayConfig{
		Corpus: corp,
		Events: s.sink(),
	})
	summary := ""
	if rep != nil {
		summary = fmt.Sprintf("replayed %d, %d drifted", rep.Total, len(rep.Drifts))
	}
	finish(opOutcome(err, summary))
	return rep, err
}

// Triage clusters the session corpus by (verdict class, cited rule, AST
// shape) into the ranked analytics report; cluster events stream to
// Events.
func (s *Session) Triage() (*TriageReport, error) {
	corp, err := s.corpusFor("Triage")
	if err != nil {
		return nil, err
	}
	finish := s.startOp("triage")
	rep, err := triage.Triage(triage.Config{
		Corpus:     corp,
		MaxNovelty: s.maxNovelty,
		Events:     s.sink(),
	})
	summary := ""
	if rep != nil {
		summary = fmt.Sprintf("%d findings in %d clusters", rep.Total, len(rep.Clusters))
	}
	finish(opOutcome(err, summary))
	return rep, err
}

// Retire runs the corpus hygiene pass: findings whose recorded defect the
// current stack no longer reproduces are promoted into the retired corpus
// (WithPromoteDir) and removed from the live one. Retired events stream
// to Events.
func (s *Session) Retire(ctx context.Context) (*RetireReport, error) {
	corp, err := s.corpusFor("Retire")
	if err != nil {
		return nil, err
	}
	finish := s.startOp("retire")
	rep, err := triage.Retire(ctx, triage.RetireConfig{
		Corpus:     corp,
		PromoteDir: s.promoteDir,
		Events:     s.sink(),
	})
	summary := ""
	if rep != nil {
		summary = fmt.Sprintf("replayed %d, retired %d", rep.Total, len(rep.Retired))
	}
	finish(opOutcome(err, summary))
	return rep, err
}

// Compact re-minimizes every finding in the session corpus with the
// current shrinker and folds newly-equal dedup keys together: entries
// whose minimized form matches an existing finding collapse onto it,
// strictly-smaller forms replace their originals promote-first (the new
// pair persists before the old one is removed), and entries that no
// longer reproduce their recorded class are left for Retire. Job-done
// and progress events stream to Events.
func (s *Session) Compact(ctx context.Context) (*CompactReport, error) {
	corp, err := s.corpusFor("Compact")
	if err != nil {
		return nil, err
	}
	finish := s.startOp("compact")
	rep, err := campaign.Compact(ctx, campaign.CompactConfig{
		Corpus:  corp,
		Events:  s.sink(),
		Metrics: s.metrics,
	})
	summary := ""
	if rep != nil {
		summary = fmt.Sprintf("%d entries, %d minimized, %d collapsed", rep.Total, rep.Minimized, rep.Collapsed)
	}
	finish(opOutcome(err, summary))
	return rep, err
}

// batchOptions is the pipeline configuration the session's batch-analysis
// methods share: full NI, the session's budget, seed, and worker pool.
func (s *Session) batchOptions() pipeline.Options {
	return pipeline.Options{
		Workers: s.workers,
		NI:      true,
		Budget:  s.spec.Budget,
		NISeed:  s.spec.Seed,
		Metrics: s.metrics,
	}
}

// CheckAll batch-analyzes jobs concurrently under the session's
// configuration: parse → resolve → baseline-check → IFC-check → NI
// experiment per job. One job-done event per classified result streams to
// Events (Op "check"), inside op-start/op-end framing. It returns the
// partial summary and ctx.Err() if cancelled mid-batch.
func (s *Session) CheckAll(ctx context.Context, jobs []BatchJob) (*BatchSummary, error) {
	finish := s.startOp("check")
	sum, err := pipeline.Run(ctx, jobs, s.batchOptions())
	sink := s.sink()
	summary := ""
	if sum != nil {
		for i := range sum.Results {
			r := &sum.Results[i]
			v, _ := difftest.Classify(r)
			sink.Emit(Event{
				Kind: events.KindJobDone, Op: "check",
				Index: int64(i), Class: v.String(), Rule: r.CitedRule(),
			})
		}
		summary = fmt.Sprintf("checked %d jobs", len(sum.Results))
	}
	finish(opOutcome(err, summary))
	return sum, err
}

// CheckStream is the channel-fed variant of CheckAll for corpora too
// large (or too lazily produced) to materialize: workers pull jobs as
// they arrive and results land on the returned channel in completion
// order. Each job's NI experiment runs with the session seed + job.Seq,
// so the producer controls reproducibility by numbering jobs. A job-done
// event per result streams to Events (Op "check-stream"); op-end is
// emitted when the result channel closes. Cancelling ctx stops the
// workers; producers must select on ctx.Done when sending.
func (s *Session) CheckStream(ctx context.Context, jobs <-chan BatchJob) <-chan BatchResult {
	finish := s.startOp("check-stream")
	sink := s.sink()
	results := pipeline.RunStream(ctx, jobs, s.batchOptions())
	out := make(chan BatchResult)
	go func() {
		defer close(out)
		n := 0
		for r := range results {
			v, _ := difftest.Classify(&r)
			sink.Emit(Event{
				Kind: events.KindJobDone, Op: "check-stream",
				Index: r.Job.Seq, Class: v.String(), Rule: r.CitedRule(),
			})
			select {
			case out <- r:
				n++
			case <-ctx.Done():
				// The consumer is gone; drain the pipeline so its workers
				// exit, then close out.
				for range results {
				}
				finish(opOutcome(ctx.Err(), ""))
				return
			}
		}
		finish(fmt.Sprintf("streamed %d results", n))
	}()
	return out
}

// Minimize delta-debugs src down to a smaller program for which keep
// still holds. keep must hold on src itself and is only called on
// parseable candidates; the result always parses and is never larger.
func (s *Session) Minimize(file, src string, keep func(src string) bool) (string, error) {
	res, err := shrink.Minimize(file, src, keep)
	return res.Source, err
}

// Corpus returns the session's corpus handle, opening it on first use.
// The handle is shared: every operation on the session — Campaign,
// Replay, Triage, Retire, Compact — reads and writes through this one
// handle, so its metadata index is loaded once per session and its
// source, parse, and fingerprint caches accumulate across operations
// instead of being rebuilt per call.
func (s *Session) Corpus() (*Corpus, error) {
	if s.corpusDir == "" {
		return nil, fmt.Errorf("session: no corpus configured (WithCorpus)")
	}
	s.mu.Lock()
	corp := s.corp
	s.mu.Unlock()
	if corp != nil {
		return corp, nil
	}
	// Open outside the lock: a corrupt index emits a warning event through
	// the sink, which takes the lock itself. The sink is resolved at emit
	// time, so warnings reach listeners attached after the open too.
	corp, err := corpus.OpenSink(s.corpusDir, func(e Event) { s.sink().Emit(e) })
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corp == nil {
		s.corp = corp
	}
	return s.corp, nil
}
