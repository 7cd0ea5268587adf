// The fleet's liveness surface: a HealthChecker summarizes whether the
// coordinator is making progress, for `p4fuzzd -http`'s /healthz endpoint
// and for tests that inject stalls. It is deliberately read-only — it
// inspects the protocol files and the coordinator's registry, never
// mutates either — so probing health can never perturb the run.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/metrics"
)

// Health is one /healthz evaluation.
type Health struct {
	// Healthy is the overall verdict: an open manifest AND a fresh
	// coordinator scan. Detail says which condition failed.
	Healthy bool   `json:"healthy"`
	Detail  string `json:"detail,omitempty"`
	// ManifestOpen reports a readable manifest; Lo/Hi its span when open.
	ManifestOpen bool  `json:"manifest_open"`
	Lo           int64 `json:"lo,omitempty"`
	Hi           int64 `json:"hi,omitempty"`
	// Frontier is the cross-run index frontier on disk.
	Frontier int64 `json:"frontier"`
	// ActiveLeases, StaleLeases, and OldestHeartbeatSeconds summarize the
	// coordinator's last lease scan (from its gauges).
	ActiveLeases           int     `json:"active_leases"`
	StaleLeases            int     `json:"stale_leases"`
	OldestHeartbeatSeconds float64 `json:"oldest_heartbeat_seconds"`
	// LastScanAgeSeconds is how long ago the coordinator's scan loop last
	// ticked — the liveness signal. Negative when it never has.
	LastScanAgeSeconds float64 `json:"last_scan_age_seconds"`
}

// A HealthChecker evaluates fleet liveness for one corpus directory. It
// doubles as an http.Handler: 200 with a Health JSON body while healthy,
// 503 (still with the body, so the probe output explains itself) once the
// manifest is retired or the coordinator stalls.
type HealthChecker struct {
	// CorpusDir roots the fleet protocol files.
	CorpusDir string
	// Metrics is the coordinator's own registry — the one its
	// RunCoordinator writes fleet_last_scan_unix_seconds and the lease
	// gauges into. Nil reads as "never scanned", i.e. unhealthy.
	Metrics *metrics.Registry
	// MaxScanAge is how stale the coordinator's last scan may be before
	// the fleet counts as stalled (default 1 minute; it should
	// comfortably exceed the coordinator's poll interval).
	MaxScanAge time.Duration
}

// Check evaluates current health.
func (h *HealthChecker) Check() Health {
	maxAge := h.MaxScanAge
	if maxAge <= 0 {
		maxAge = time.Minute
	}
	out := Health{LastScanAgeSeconds: -1}
	out.Frontier = loadFrontier(h.CorpusDir, nil)

	man, err := readManifest(h.CorpusDir)
	if err == nil {
		out.ManifestOpen = true
		out.Lo, out.Hi = man.Lo, man.Hi
	}

	snap := h.Metrics.Snapshot()
	out.ActiveLeases = int(snap.Gauge(metrics.FleetActiveLeases))
	out.StaleLeases = int(snap.Gauge(metrics.FleetStaleLeases))
	out.OldestHeartbeatSeconds = snap.Gauge(metrics.FleetHeartbeatAge)
	lastScan := snap.Gauge(metrics.FleetLastScan)
	if lastScan > 0 {
		out.LastScanAgeSeconds = time.Since(time.Unix(int64(lastScan), 0)).Seconds()
	}

	switch {
	case !out.ManifestOpen:
		if os.IsNotExist(err) {
			out.Detail = "no open fleet run (manifest absent — retired or not started)"
		} else {
			out.Detail = fmt.Sprintf("manifest unreadable: %v", err)
		}
	case out.LastScanAgeSeconds < 0:
		out.Detail = "coordinator has not scanned yet"
	case out.LastScanAgeSeconds > maxAge.Seconds():
		out.Detail = fmt.Sprintf("coordinator stalled: last scan %.1fs ago (max %v)", out.LastScanAgeSeconds, maxAge)
	default:
		out.Healthy = true
	}
	return out
}

// ServeHTTP renders Check as JSON: 200 while healthy, 503 otherwise.
func (h *HealthChecker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	out := h.Check()
	w.Header().Set("Content-Type", "application/json")
	if !out.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
