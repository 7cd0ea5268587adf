package metrics

// Series names that one package records and another reads back. They are
// also the metrics.json contract CI's jq gates check, so producers and
// readers take them from this one table.
const (
	// Corpus compaction tallies: recorded by campaign.Compact, summarized
	// by the triage diff.
	CompactEntries    = "compact_entries_total"
	CompactMinimized  = "compact_minimized_total"
	CompactCollapsed  = "compact_collapsed_total"
	CompactBytesSaved = "compact_bytes_saved_total"
	CompactSkipped    = "compact_skipped_total"

	// Fleet coordinator series: recorded by the coordinator's scan loop,
	// read by the fleet health check and the triage diff.
	FleetLastScan       = "fleet_last_scan_unix_seconds"
	FleetActiveLeases   = "fleet_active_leases"
	FleetStaleLeases    = "fleet_stale_leases"
	FleetHeartbeatAge   = "fleet_lease_heartbeat_age_seconds"
	FleetReclaims       = "fleet_reclaims_total"
	FleetWindowsDone    = "fleet_windows_done_total"
	FleetWindows        = "fleet_windows_total"
	FleetMergedFindings = "fleet_merged_findings_total"
)
