package engine

import "taco/internal/telemetry"

// Process-wide recalculation instruments. The per-engine counters in
// RecalcStats describe one session; these aggregate across every engine in
// the process so /metrics shows the scheduler's overall behaviour — how
// much work drains, how often levelling runs versus resumes, and whether
// edits are invalidating schedules mid-drain. Counts are added in batches
// at drain exit points (never per cell), so the evaluation hot loop carries
// no atomic traffic.
var (
	mCellsEvaluated = telemetry.NewCounter("taco_engine_cells_evaluated_total",
		"Dirty cells evaluated by recalculation.")
	mLevelsDrained = telemetry.NewCounter("taco_sched_levels_drained_total",
		"Wavefront levels of span nodes completed by the resumable scheduler.")
	mSchedBuilds = telemetry.NewCounter("taco_sched_builds_total",
		"Schedule builds, one per dirty generation drained on the levels: the carve against the columns' run tables, the span links and Kahn's first frontier.")
	mSchedResumes = telemetry.NewCounter("taco_sched_resumes_total",
		"Budgeted drains that resumed a cached schedule instead of re-levelling.")
	mSchedInvalidations = telemetry.NewCounter("taco_sched_invalidations_total",
		"Cached schedules invalidated by a dirty-set mutation mid-drain.")
	mPatternRuns = telemetry.NewCounter("taco_sched_pattern_runs_total",
		"Sweeps of pattern-run span nodes; a span a budget cuts is one sweep per chunk (see runs.go).")
	mPatternRunCells = telemetry.NewCounter("taco_sched_pattern_run_cells_total",
		"Cells evaluated inside vectorized pattern-run sweeps.")
	mCycleCells = telemetry.NewCounter("taco_sched_cycle_cells_total",
		"Cells whose value the serial walk (small drains, a pinned engine, the tail of a stalled levelled drain) computed as #CYCLE!: on a reference cycle, or propagating one's error.")
)
