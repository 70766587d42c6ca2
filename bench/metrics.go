package main

import (
	"slices"
	"strings"
)

// metricDef names one metric the way BENCHMARK.json does. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before -compare calls it worse; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
	// mean marks a metric reported as the mean over the invocations
	// instead of the median.
	mean bool
	// suiteOnly marks a per-layer metric a full run reports but
	// BENCHMARK.json does not list: a host time that is structurally 0 on
	// some workload (no restart, no commit), which the harness would read
	// as a time that never varies.
	suiteOnly bool
}

// endToEnd is what a user of manasim sees. failed_ratio is reported
// beside these (absolute bound 0) but is not in BENCHMARK.json: it is 0
// at every healthy commit, and the harness takes failures from the
// result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25, mean: true},
	{name: "sim_events_per_s", unit: "events/s", better: "higher", bound: 0.25},
	{name: "runs_per_s", unit: "runs/s", better: "higher", bound: 0.25},
}

var failedRatio = metricDef{name: "failed_ratio", unit: "ratio", better: "lower"}

// printed is every end-to-end metric a run prints and -compare judges.
var printed = append(slices.Clone(endToEnd), failedRatio)

// perLayer is the full per-layer table, in the order the traced pass
// produces it. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "scenario.load_s", unit: "s", better: "lower"},
	{name: "scenario.compile_s", unit: "s", better: "lower"},
	{name: "scenario.compile_ops", unit: "count", better: "lower"},
	{name: "fleet.config_s", unit: "s", better: "lower"},
	{name: "coordinator.new_s", unit: "s", better: "lower"},
	{name: "coordinator.new_alloc_mb", unit: "MiB", better: "lower"},
	{name: "coordinator.new_mallocs", unit: "count", better: "lower"},
	{name: "rank.new_us_per_rank", unit: "us", better: "lower"},
	{name: "rank.new_kb_per_rank", unit: "KiB", better: "lower"},
	{name: "virtid.new_ns", unit: "ns", better: "lower"},
	{name: "virtid.new_bytes", unit: "B", better: "lower"},
	{name: "virtid.lookup_ns", unit: "ns", better: "lower"},
	{name: "virtid.register_ns", unit: "ns", better: "lower"},
	{name: "virtid.mutex_lookup_ns", unit: "ns", better: "lower"},
	{name: "memsim.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "coordinator.run_s", unit: "s", better: "lower"},
	{name: "coordinator.run_mallocs", unit: "count", better: "lower"},
	{name: "coordinator.events", unit: "count", better: "lower"},
	{name: "coordinator.rank_visits", unit: "count", better: "lower"},
	{name: "coordinator.run_nockpt_s", unit: "s", better: "lower"},
	{name: "coordinator.ns_per_event", unit: "ns", better: "lower"},
	{name: "coordinator.ckpt_s", unit: "s", better: "lower"},
	{name: "coordinator.ckpt_ms_per_commit", unit: "ms", better: "lower", suiteOnly: true},
	{name: "coordinator.run_parallel_s", unit: "s", better: "lower"},
	{name: "coordinator.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "vtime.push_pop_ns", unit: "ns", better: "lower"},
	{name: "netsim.send_recv_ns", unit: "ns", better: "lower"},
	{name: "rank.capture_full_us_per_rank", unit: "us", better: "lower"},
	{name: "rank.capture_incr_us_per_rank", unit: "us", better: "lower"},
	{name: "memsim.commit_us_per_rank", unit: "us", better: "lower"},
	{name: "memsim.commit_delta_us_per_rank", unit: "us", better: "lower"},
	{name: "storage.compress_mb_per_s", unit: "MiB/s", better: "higher"},
	{name: "storage.pfs_write_ns", unit: "ns", better: "lower"},
	{name: "coordinator.restart_s", unit: "s", better: "lower", suiteOnly: true},
	{name: "coordinator.restart_attempts", unit: "count", better: "lower"},
	{name: "coordinator.verified_pages", unit: "count", better: "lower"},
	{name: "coordinator.fallback_depth", unit: "count", better: "lower"},
	{name: "rank.verify_us_per_rank", unit: "us", better: "lower"},
	{name: "rank.overlay_us_per_rank", unit: "us", better: "lower"},
	{name: "rank.restore_us_per_rank", unit: "us", better: "lower"},
	{name: "memsim.verify_pages_per_s", unit: "pages/s", better: "higher"},
	{name: "coordinator.fingerprint_s", unit: "s", better: "lower"},
	{name: "memsim.fingerprint_us_per_rank", unit: "us", better: "lower"},
	{name: "coordinator.report_s", unit: "s", better: "lower"},
	{name: "coordinator.report_bytes", unit: "B", better: "lower"},
	{name: "coordinator.release_s", unit: "s", better: "lower"},
	{name: "fleet.cells_per_s_w1", unit: "cells/s", better: "higher"},
	{name: "fleet.cells_per_s_w2", unit: "cells/s", better: "higher"},
	{name: "fleet.pool_speedup", unit: "ratio", better: "higher"},
	{name: "fleet.spec_compiles", unit: "count", better: "lower"},
	{name: "fleet.warm_cold_alloc_ratio", unit: "ratio", better: "lower"},
	{name: "cli.startup_s", unit: "s", better: "lower"},
	{name: "cli.overhead_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "model.makespan_ns", unit: "sim_ns", better: "lower"},
	{name: "model.image_bytes", unit: "B", better: "lower"},
	{name: "model.stored_bytes", unit: "B", better: "lower"},
	{name: "model.pfs_wait_ns", unit: "sim_ns", better: "lower"},
	{name: "model.lost_work_ns", unit: "sim_ns", better: "lower"},
}

// exact names what -compare diffs bit for bit between two result files:
// a speed-only change must leave them alone.
func exact(name string) bool {
	return name == "coordinator.events" || name == "coordinator.rank_visits" || strings.HasPrefix(name, "model.")
}
