package server

import (
	"sync"

	"taco/internal/telemetry"
)

// The serving layer's instruments, registered once per process on the
// telemetry default registry. Counters are package-global rather than
// per-Store so any number of Store instances (tests, embedded drivers)
// compose into one process-wide view without duplicate-registration
// panics; instantaneous state (resident counts, queue depth) comes from
// gauge callbacks that sum over the live stores at scrape time.
var (
	// HTTP layer — maintained by the middleware in middleware.go.
	httpRequests = telemetry.NewCounterVec("taco_http_requests_total",
		"HTTP requests served, by matched route pattern and status code.",
		"route", "code")
	httpDuration = telemetry.NewHistogramVec("taco_http_request_duration_seconds",
		"HTTP request latency by matched route pattern.",
		telemetry.DurationBounds(), "route")
	httpInFlight = telemetry.NewGauge("taco_http_requests_in_flight",
		"HTTP requests currently being handled.")

	// Store lifecycle.
	mSessionsCreated = telemetry.NewCounter("taco_store_sessions_created_total",
		"Sessions created.")
	mSessionsDeleted = telemetry.NewCounter("taco_store_sessions_deleted_total",
		"Sessions deleted.")
	mRestores = telemetry.NewCounter("taco_store_restores_total",
		"Spilled sessions restored to residency from their snapshot.")
	mEvictions = telemetry.NewCounter("taco_store_evictions_total",
		"Sessions evicted from residency (base snapshot written, or base + journal already current).")
	mSnapSkips = telemetry.NewCounter("taco_store_snapshot_skips_total",
		"Evictions that dropped residency without rewriting an unchanged snapshot.")
	mSpillBytes = telemetry.NewCounter("taco_store_spill_bytes_total",
		"Bytes of session snapshots written to spill files.")
	mSpillErrors = telemetry.NewCounter("taco_store_spill_errors_total",
		"Failed base snapshot writes (eviction, a new session's first base); the session stays resident and unevictable until the repairer lands its base.")
	mSpillReads = telemetry.NewCounter("taco_store_spill_reads_total",
		"Spilled base snapshots streamed to a standby by the replication snapshot endpoint.")
	mLookupHits = telemetry.NewCounter("taco_store_lookup_hits_total",
		"Session lookups that found the session.")
	mLookupMisses = telemetry.NewCounter("taco_store_lookup_misses_total",
		"Session lookups for unknown IDs.")

	// Drain path. The hold histogram is the store's tail-latency instrument:
	// every session-lock hold taken to evaluate a recalculation chunk — in
	// drainChunk, whether a worker or a Wait barrier owns the drain — records
	// its duration, so the p99 bounds how long a concurrent reader can stall
	// behind recalculation.
	mDrainHold = telemetry.NewHistogram("taco_store_drain_hold_seconds",
		"Session write-lock hold duration per recalculation chunk, whether a drain worker or a Wait barrier runs it.",
		telemetry.DurationBounds())
	mDrains = telemetry.NewCounter("taco_store_drains_total",
		"Drains settled (a session reached zero pending cells), by a drain worker or a Wait barrier.")

	// Durability and crash recovery (durability.go). taco_journal_* families
	// live in internal/journal.
	mRecoveredSessions = telemetry.NewCounter("taco_recovery_sessions_total",
		"Sessions re-registered from the persistent registry at warm boot.")
	mReplayRecords = telemetry.NewCounter("taco_recovery_replay_records_total",
		"Journal records replayed onto restored snapshots.")
	mReplayDuration = telemetry.NewHistogram("taco_recovery_replay_seconds",
		"Journal-tail replay duration per session restore.",
		telemetry.DurationBounds())
	mQuarantined = telemetry.NewCounter("taco_recovery_quarantined_snapshots_total",
		"Base snapshots and journals that failed their integrity check at restore and were renamed aside as *.corrupt.")
	mDurabilityErrors = telemetry.NewCounter("taco_store_durability_errors_total",
		"Failed journal appends or registry updates; the session degrades to non-durable rather than failing the request.")

	// Graceful degradation (degrade.go).
	mDegradedEvents = telemetry.NewCounterVec("taco_durability_degraded_total",
		"Durability paths a session lost (writes fenced, repair scheduled), by cause; a session losing both counts once for each.", "reason")
	mRepairs = telemetry.NewCounter("taco_durability_repairs_total",
		"Degraded sessions repaired: durability re-armed and the write fence lifted.")
	mRepairFailures = telemetry.NewCounter("taco_durability_repair_failures_total",
		"Repair attempts that failed and were re-scheduled on backoff.")

	// Write-nothing evictions (store.go) and copy-on-write forks (fork.go).
	mDeltaWrites = telemetry.NewCounter("taco_snap_delta_writes_total",
		"Evictions that dropped residency without writing because the journal already held the value-only edits above the base snapshot.")
	mDeltaCompactions = telemetry.NewCounter("taco_snap_delta_compactions_total",
		"Evictions forced to write a full base snapshot because the replayable journal tail exceeded its record or byte cap.")
	mForks = telemetry.NewCounter("taco_fork_sessions_total",
		"Copy-on-write session forks created.")
	mForkDuration = telemetry.NewHistogram("taco_fork_seconds",
		"Fork creation latency: base freeze, journal-tail copy, and registry update.",
		telemetry.DurationBounds())

	// Journal shipping (replication.go). mReplShipped counts on the primary,
	// the rest on the standby.
	mReplShipped = telemetry.NewCounter("taco_repl_records_shipped_total",
		"Journal records streamed to followers over /replication endpoints.")
	mReplApplied = telemetry.NewCounter("taco_repl_records_applied_total",
		"Shipped journal records applied by this standby.")
	mReplSnapshots = telemetry.NewCounter("taco_repl_snapshots_total",
		"Session bootstraps from a primary snapshot on this standby.")
	mReplErrors = telemetry.NewCounter("taco_repl_errors_total",
		"Failed shipping cycles (the replicator retries on capped backoff).")
	mReplLagRevs = telemetry.NewGauge("taco_repl_lag_revs",
		"Revisions the standby is behind the primary, summed over sessions, at the last poll.")
	mPromotions = telemetry.NewCounter("taco_repl_promotions_total",
		"Standby promotions: replicator fenced and the write fence lifted.")
)

// liveStores tracks open Stores for the scrape-time gauges. NewStore
// registers, Close unregisters.
var liveStores sync.Map // *Store -> struct{}

// storeGaugesOnce delays gauge registration to first store construction so
// merely importing the package (e.g. from the client library) doesn't
// expose store families with no store behind them.
var storeGaugesOnce sync.Once

// sumStores folds fn over the live stores' stats snapshots at scrape time.
func sumStores(fn func(StoreStats) float64) float64 {
	total := 0.0
	liveStores.Range(func(k, _ any) bool {
		total += fn(k.(*Store).Stats())
		return true
	})
	return total
}

func registerStoreGauges() {
	telemetry.NewGaugeFunc("taco_store_sessions",
		"Sessions currently hosted (resident + spilled), across all stores.",
		func() float64 { return sumStores(func(s StoreStats) float64 { return float64(s.Sessions) }) })
	telemetry.NewGaugeFunc("taco_store_resident_sessions",
		"Sessions currently resident in memory, across all stores.",
		func() float64 { return sumStores(func(s StoreStats) float64 { return float64(s.Resident) }) })
	telemetry.NewGaugeFunc("taco_store_recalc_queue_depth",
		"Sessions queued for a background drain worker.",
		func() float64 { return sumStores(func(s StoreStats) float64 { return float64(s.RecalcQueue) }) })
	telemetry.NewGaugeFunc("taco_store_drains_in_flight",
		"Recalculation chunks currently running or taking a session lock, at most one per session.",
		func() float64 { return sumStores(func(s StoreStats) float64 { return float64(s.DrainsInFlight) }) })
	telemetry.NewGaugeFunc("taco_durability_degraded_sessions",
		"Sessions currently write-fenced by a durability fault, awaiting repair.",
		func() float64 { return sumStores(func(s StoreStats) float64 { return float64(s.DegradedSessions) }) })
}
