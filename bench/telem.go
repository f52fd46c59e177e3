package main

import (
	"bytes"
	"strings"

	"taco/internal/telemetry"
)

// counterFamilies maps a per-layer metric to the taco_* counter family whose
// before/after delta it reports. The families are the program's own; the
// benchmark only reads them.
var counterFamilies = map[string]string{
	"engine.cells_evaluated":     "taco_engine_cells_evaluated_total",
	"engine.levels_drained":      "taco_sched_levels_drained_total",
	"engine.sched_builds":        "taco_sched_builds_total",
	"engine.sched_resumes":       "taco_sched_resumes_total",
	"engine.sched_warm_reuses":   "taco_sched_warm_reuses_total",
	"engine.sched_invalidations": "taco_sched_invalidations_total",
	"journal.appends":            "taco_journal_appends_total",
	"journal.append_bytes":       "taco_journal_append_bytes_total",
	"journal.fsyncs":             "taco_journal_fsyncs_total",
	"server.evictions":           "taco_store_evictions_total",
	"server.restores":            "taco_store_restores_total",
	"server.snapshot_skips":      "taco_store_snapshot_skips_total",
	"server.spill_bytes":         "taco_store_spill_bytes_total",
	"server.delta_writes":        "taco_snap_delta_writes_total",
	"server.delta_bytes":         "taco_snap_delta_bytes_total",
	"server.delta_compactions":   "taco_snap_delta_compactions_total",
	"server.spill_reads":         "taco_store_spill_reads_total",
	"server.drains":              "taco_store_drains_total",
}

// Families read only to derive ratios.
const (
	famPatternRunCells = "taco_sched_pattern_run_cells_total"
	famParseHits       = "taco_parse_cache_hits_total"
	famParseMisses     = "taco_parse_cache_misses_total"
	famCompileHits     = "taco_compile_cache_hits_total"
	famCompileMisses   = "taco_compile_cache_misses_total"
	famLookupHits      = "taco_store_lookup_hits_total"
	famHTTPRequests    = "taco_http_requests_total"
	famDrainHold       = "taco_store_drain_hold_seconds"
)

// telemetrySnap is the state of the families above at one instant, or how
// far they moved over some intervals.
type telemetrySnap struct {
	counters  map[string]float64
	http5xx   float64
	holdCount []uint64
	holdBound []float64
}

func scrapeTelemetry() telemetrySnap {
	var buf bytes.Buffer
	snap := telemetrySnap{counters: map[string]float64{}}
	if err := telemetry.Default.WriteText(&buf); err != nil {
		return snap
	}
	sc, err := telemetry.ParseText(&buf)
	if err != nil {
		return snap
	}
	fams := []string{famPatternRunCells, famParseHits, famParseMisses, famCompileHits, famCompileMisses, famLookupHits}
	for _, f := range counterFamilies {
		fams = append(fams, f)
	}
	for _, f := range fams {
		snap.counters[f], _ = sc.Value(f, nil)
	}
	if fam := sc.Families[famHTTPRequests]; fam != nil {
		for _, s := range fam.Samples {
			if strings.HasPrefix(s.Labels["code"], "5") {
				snap.http5xx += s.Value
			}
		}
	}
	snap.holdBound, snap.holdCount, _, _, _ = sc.Histogram(famDrainHold)
	return snap
}

// addInterval adds how far each family moved between two snapshots.
func (d *telemetrySnap) addInterval(before, after telemetrySnap) {
	if d.counters == nil {
		d.counters = map[string]float64{}
	}
	for f, v := range after.counters {
		d.counters[f] += v - before.counters[f]
	}
	d.http5xx += after.http5xx - before.http5xx
	if len(after.holdCount) == 0 {
		return
	}
	if d.holdCount == nil {
		d.holdCount = make([]uint64, len(after.holdCount))
		d.holdBound = after.holdBound
	}
	for i, c := range after.holdCount {
		if i < len(before.holdCount) {
			c -= before.holdCount[i]
		}
		d.holdCount[i] += c
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns summed intervals into per-layer metric values.
func (d *telemetrySnap) metrics(out map[string]float64) {
	if d.counters == nil {
		return
	}
	for name, fam := range counterFamilies {
		out[name] = d.counters[fam]
	}
	c := d.counters
	out["engine.pattern_run_cell_ratio"] = ratio(c[famPatternRunCells], c["taco_engine_cells_evaluated_total"])
	out["formula.parse_cache_hit_ratio"] = ratio(c[famParseHits], c[famParseHits]+c[famParseMisses])
	out["formula.compile_cache_hit_ratio"] = ratio(c[famCompileHits], c[famCompileHits]+c[famCompileMisses])
	out["server.resident_hit_ratio"] = 0
	if c[famLookupHits] > 0 {
		out["server.resident_hit_ratio"] = 1 - (c["taco_store_restores_total"]+c["taco_store_spill_reads_total"])/c[famLookupHits]
	}
	out["server.http_5xx"] = d.http5xx
	if d.holdCount != nil {
		out["server.drain_hold_p50_ms"] = 1e3 * telemetry.Quantile(d.holdBound, d.holdCount, 0.50)
		out["server.drain_hold_p99_ms"] = 1e3 * telemetry.Quantile(d.holdBound, d.holdCount, 0.99)
	}
}
