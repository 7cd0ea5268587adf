// Package events defines the structured event stream the campaign stack
// emits while it works: per-job completions, findings as they persist,
// replay drift, triage clusters, retirements, coarse progress ticks, and
// the fleet's lease lifecycle. The engines (internal/campaign,
// internal/triage, internal/fleet) emit through a Sink — a plain nil-able
// callback, so an engine run without a listener pays one nil check per
// event — and the public Session API fans the sink into a buffered
// channel for CLIs and CI to render live.
//
// Events marshal to JSON with the kind spelled as its string name, one
// object per line under `p4fuzz -events-json` — the machine-readable form
// fleet coordinators, CI gates, and dashboards parse instead of scraping
// stderr. Zero-valued kind-dependent fields are omitted.
package events

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Kind discriminates events.
type Kind int

// Event kinds.
const (
	// KindJobDone is one analyzed (or replayed) program: Index is its
	// campaign index (or replay sequence), Class the verdict class the
	// stack assigned.
	KindJobDone Kind = iota
	// KindFinding is one interesting program persisted (or collected) by
	// a campaign; Class, Key, Path, and Detail describe it.
	KindFinding
	// KindDrift is one replayed finding whose classification no longer
	// matches its recorded class: Class is the recorded class, Detail the
	// "now X" explanation.
	KindDrift
	// KindCluster is one ranked triage cluster, emitted in rank order:
	// Class/Rule/Detail carry (class, rule, fingerprint), Done the
	// cluster's size, and Total the report's cluster count.
	KindCluster
	// KindRetired is one corpus entry promoted into the retired corpus
	// and removed from the live one.
	KindRetired
	// KindProgress is a coarse tick: Done of Total units complete for the
	// current operation (Total is 0 when unknown, e.g. replay of an
	// unopened corpus).
	KindProgress
	// KindWarning is a recoverable anomaly the operation worked around —
	// e.g. a corrupt corpus index that was rebuilt from a directory rescan,
	// a corrupt fleet frontier recovered as index 0, or events dropped by a
	// slow listener (Done carries the drop count). Detail says what
	// happened, Path where.
	KindWarning
	// KindOpStart and KindOpEnd frame every Session operation's stream: a
	// consumer that saw OpStart but no OpEnd knows the stream was cut short
	// (crashed worker, killed process), and one that saw both knows it has
	// the whole operation — modulo an explicit drop-count warning just
	// before OpEnd. Op names the operation; OpEnd's Detail summarizes the
	// outcome.
	KindOpStart
	KindOpEnd
	// KindLease is one index window leased to a fleet worker: Worker holds
	// the worker id, Lo and Hi the window bounds.
	KindLease
	// KindReclaim is one expired lease reclaimed by the fleet coordinator
	// (the worker's heartbeat went stale); the window returns to the pool
	// and will be re-leased.
	KindReclaim
	// KindWindowDone is one leased window completed by a worker: Done
	// carries the window's new-finding count, Total its analyzed count.
	KindWindowDone
	// KindMerge is one worker finding merged into the fleet's main corpus;
	// Key and Class identify it, Worker where it came from.
	KindMerge
	// KindMetrics is a periodic telemetry snapshot: Snapshot carries the
	// emitting process's metrics registry. Fleet coordinators absorb these
	// from worker streams into a merged view; the final one an operation
	// emits reflects its end state.
	KindMetrics
)

// kindNames is the canonical string form of each kind — the JSON
// vocabulary `-events-json` consumers parse.
var kindNames = [...]string{
	KindJobDone:    "job-done",
	KindFinding:    "finding",
	KindDrift:      "drift",
	KindCluster:    "cluster",
	KindRetired:    "retired",
	KindProgress:   "progress",
	KindWarning:    "warning",
	KindOpStart:    "op-start",
	KindOpEnd:      "op-end",
	KindLease:      "lease",
	KindReclaim:    "reclaim",
	KindWindowDone: "window-done",
	KindMerge:      "merge",
	KindMetrics:    "metrics",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event"
}

// KindFromString resolves a kind's string name — the inverse of String,
// used when ingesting a serialized event stream.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON writes the kind as its string name, so serialized streams
// read ("kind":"job-done") and survive reordering of the Kind enum.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON resolves a kind from its string name.
func (k *Kind) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	got, ok := KindFromString(s)
	if !ok {
		return fmt.Errorf("events: unknown kind %q", s)
	}
	*k = got
	return nil
}

// Event is one observation from a running operation. Fields beyond Kind,
// Op, and Time are kind-dependent; unused ones are zero (and omitted from
// the JSON form).
type Event struct {
	Kind Kind `json:"kind"`
	// Op names the operation emitting: "campaign", "replay", "triage",
	// "retire", "compact", "check", "check-stream", "fleet".
	Op string `json:"op,omitempty"`
	// Time is when the event was emitted.
	Time time.Time `json:"time"`
	// Worker is the fleet worker id the event came from ("" outside a
	// fleet); coordinators stamp it when ingesting a worker's stream.
	Worker string `json:"worker,omitempty"`
	// Index is the campaign/replay index the event concerns.
	Index int64 `json:"index,omitempty"`
	// Class, Rule, Detail, Key, and Path describe the program or cluster.
	Class  string `json:"class,omitempty"`
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`
	Key    string `json:"key,omitempty"`
	Path   string `json:"path,omitempty"`
	// Done and Total carry progress (and cluster size/rank) counts.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Lo and Hi delimit a fleet lease window [Lo, Hi).
	Lo int64 `json:"lo,omitempty"`
	Hi int64 `json:"hi,omitempty"`
	// JobsPerSec and FindingsPerSec are throughput rates since the
	// operation started, carried on KindProgress ticks when the emitter
	// has a metrics registry to compute them from.
	JobsPerSec     float64 `json:"jobs_per_sec,omitempty"`
	FindingsPerSec float64 `json:"findings_per_sec,omitempty"`
	// Snapshot is the KindMetrics payload. A pointer so Event stays
	// comparable and the field marshals away on every other kind.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
}

// Sink receives events; a nil Sink discards them. Engines call Emit, not
// the sink directly, so the nil case stays in one place.
type Sink func(Event)

// Emit sends e to s, stamping Time if unset; nil sinks discard.
func (s Sink) Emit(e Event) {
	if s == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	s(e)
}

// Text renders an event as the one-line human form the CLIs print ("" for
// kinds with no text rendering). Every CLI that streams events — p4fuzz
// -events, p4fuzzd — prints this form, so fleet logs read the same no
// matter which process emitted a line.
func (e Event) Text() string {
	switch e.Kind {
	case KindOpStart:
		return fmt.Sprintf("[%s] start", e.Op)
	case KindOpEnd:
		return fmt.Sprintf("[%s] end: %s", e.Op, e.Detail)
	case KindProgress:
		if e.JobsPerSec > 0 {
			return fmt.Sprintf("[%s] %d/%d done (%.1f jobs/s, %.2f findings/s)", e.Op, e.Done, e.Total, e.JobsPerSec, e.FindingsPerSec)
		}
		return fmt.Sprintf("[%s] %d/%d done", e.Op, e.Done, e.Total)
	case KindFinding:
		return fmt.Sprintf("[%s] finding %s (index %d): %s", e.Op, e.Class, e.Index, e.Detail)
	case KindDrift:
		return fmt.Sprintf("[%s] drift %s: recorded %s, %s", e.Op, e.Path, e.Class, e.Detail)
	case KindCluster:
		return fmt.Sprintf("[%s] cluster %s/%s/%s: %d findings", e.Op, e.Class, e.Rule, e.Detail, e.Done)
	case KindRetired:
		return fmt.Sprintf("[%s] retired %s: %s", e.Op, e.Path, e.Detail)
	case KindWarning:
		if e.Path == "" {
			return fmt.Sprintf("[%s] warning: %s", e.Op, e.Detail)
		}
		return fmt.Sprintf("[%s] warning %s: %s", e.Op, e.Path, e.Detail)
	case KindLease:
		return fmt.Sprintf("[%s] %s leased [%d, %d)", e.Op, e.Worker, e.Lo, e.Hi)
	case KindReclaim:
		return fmt.Sprintf("[%s] reclaimed [%d, %d) from %s: %s", e.Op, e.Lo, e.Hi, e.Worker, e.Detail)
	case KindWindowDone:
		return fmt.Sprintf("[%s] %s finished [%d, %d): %d analyzed, %d findings", e.Op, e.Worker, e.Lo, e.Hi, e.Total, e.Done)
	case KindMerge:
		return fmt.Sprintf("[%s] merged %s finding %.12s (%s) from [%d, %d)", e.Op, e.Worker, e.Key, e.Class, e.Lo, e.Hi)
	case KindMetrics:
		if e.Snapshot == nil {
			return fmt.Sprintf("[%s] metrics snapshot", e.Op)
		}
		return fmt.Sprintf("[%s] metrics snapshot: %d counters, %d gauges, %d histograms",
			e.Op, len(e.Snapshot.Counters), len(e.Snapshot.Gauges), len(e.Snapshot.Histograms))
	}
	return ""
}
