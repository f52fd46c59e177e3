package journal

import "taco/internal/telemetry"

// Package-global instruments on the telemetry default registry, following
// the repo-wide convention: any number of writers and registries compose
// into one process view, registered at init so the families appear in
// /metrics even before the first durable session.
var (
	mAppends = telemetry.NewCounter("taco_journal_appends_total",
		"Records appended across all journal and registry logs.")
	mAppendBytes = telemetry.NewCounter("taco_journal_append_bytes_total",
		"Encoded record bytes appended across all journal and registry logs.")
	mFsyncs = telemetry.NewCounter("taco_journal_fsyncs_total",
		"fsync(2) calls completed on journal and registry logs (group commits, interval flushes, closes).")
	mTruncations = telemetry.NewCounter("taco_journal_truncations_total",
		"Journal truncations: snapshot-superseded resets plus torn tails dropped at open.")
	mAppendErrors = telemetry.NewCounter("taco_journal_append_errors_total",
		"Failed journal appends (write error; the tail was wound back to the last record boundary).")
	mTornWriters = telemetry.NewCounter("taco_journal_torn_writers_total",
		"Writers poisoned by an append that could not be wound back or a failed fsync (refusing appends until Reset).")
	mRegistryRecords = telemetry.NewCounter("taco_registry_records_total",
		"Put/delete records appended to the session registry.")
	mRegistryCompactions = telemetry.NewCounter("taco_registry_compactions_total",
		"Session-registry log compactions (rewrite to the live set).")
)
