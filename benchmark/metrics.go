package main

import (
	"fmt"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// workloadDef names a workload and why it is here.
type workloadDef struct{ name, why string }

// workloadDefs are the five workloads; later issues refer to them by name.
var workloadDefs = []workloadDef{
	{"fig7_cold", "fresh harness per Fig. 7 sweep, as users regenerate it: model build, profiling and solo calibration do most of the work"},
	{"fig7_warm", "same sweep on one kept harness: model-build layers bypassed, only the event loop, rate fixpoint, schedulers and driver run"},
	{"launch_single", "one client.Launch per op on a journaling in-process daemon, Synchronize every 32: two journal records and one ipc round trip per launch"},
	{"launch_batch", "same daemon, NewBatch of 32 spec items then Submit and Synchronize: one frame and one group commit per 32, so encode, admission, dispatch, executor and demux do the work"},
	{"launch_source", "batches of 32 LaunchSource items over a Unix socket as slated serves it: every item pays injection and a compile-cache lookup and carries its source"},
}

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
}

// exactMetrics must repeat bit for bit between two runs of one commit at one
// seed: they count simulated or encoded work, not host time.
var exactMetrics = map[string]bool{
	"traces.accesses":                true,
	"engine.solo_events":             true,
	"sim.slate_vs_mps_pct":           true,
	"sim.slate_vs_cuda_pct":          true,
	"sim_err_pp":                     true,
	"ipc.launch_frame_bytes":         true,
	"ipc.batch32_frame_bytes":        true,
	"ipc.batch32_source_frame_bytes": true,
	"journal.record_bytes":           true,
	"daemon.recovered_records":       true,
	"fail_frac":                      true,
}

// perLayerDefs are the per-layer metrics of the traced run. Every workload's
// traced run reports every one of them: the probes do not depend on the
// workload, so the budgets of all five can be read off any one run. Only
// host.*, trace_overhead_frac and fail_frac come from the workload's own
// window.
var perLayerDefs = []metricDef{
	{name: "traces.assemble_s", unit: "s", better: "lower"},
	{name: "traces.accesses", unit: "count", better: "lower"},
	{name: "traces.assemble_ns_per_access", unit: "ns", better: "lower"},
	{name: "cache.mrc_s", unit: "s", better: "lower"},
	{name: "cache.mrc_ns_per_access", unit: "ns", better: "lower"},
	{name: "engine.model_build_s", unit: "s", better: "lower"},
	{name: "engine.model_lookup_ns", unit: "ns", better: "lower"},
	{name: "engine.solo_events", unit: "count", better: "lower"},
	{name: "engine.solo_host_s", unit: "s", better: "lower"},
	{name: "engine.host_ns_per_event", unit: "ns", better: "lower"},
	{name: "vtime.ns_per_event", unit: "ns", better: "lower"},
	{name: "vtime.sharded_ns_per_event", unit: "ns", better: "lower"},
	{name: "profile.get_s", unit: "s", better: "lower"},
	{name: "harness.cell_cold_s", unit: "s", better: "lower"},
	{name: "harness.cell_warm_s", unit: "s", better: "lower"},
	{name: "harness.cold_minus_warm_s", unit: "s", better: "lower"},
	{name: "harness.par_speedup_cold", unit: "ratio", better: "higher"},
	{name: "harness.par_speedup_warm", unit: "ratio", better: "higher"},
	{name: "harness.render_us", unit: "us", better: "lower"},
	{name: "sim.slate_vs_mps_pct", unit: "%", better: "higher"},
	{name: "sim.slate_vs_cuda_pct", unit: "%", better: "higher"},
	{name: "sim.simulated_s_per_host_s", unit: "ratio", better: "higher"},
	{name: "sim_err_pp", unit: "pp", better: "lower"},
	{name: "ipc.launch_roundtrip_us", unit: "us", better: "lower"},
	{name: "ipc.batch32_roundtrip_us", unit: "us", better: "lower"},
	{name: "ipc.batch32_source_roundtrip_us", unit: "us", better: "lower"},
	{name: "ipc.launch_frame_bytes", unit: "bytes", better: "lower"},
	{name: "ipc.batch32_frame_bytes", unit: "bytes", better: "lower"},
	{name: "ipc.batch32_source_frame_bytes", unit: "bytes", better: "lower"},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.append_p95_us", unit: "us", better: "lower"},
	{name: "journal.append_batch32_us", unit: "us", better: "lower"},
	{name: "journal.record_bytes", unit: "bytes", better: "lower"},
	{name: "journal.checkpoint_us", unit: "us", better: "lower"},
	{name: "journal.replay_us_per_record", unit: "us", better: "lower"},
	{name: "daemon.exec_run_us", unit: "us", better: "lower"},
	{name: "transform.run_parallel_ns_per_block", unit: "ns", better: "lower"},
	{name: "daemon.volatile_launch_us", unit: "us", better: "lower"},
	{name: "daemon.nosync_launch_us", unit: "us", better: "lower"},
	{name: "daemon.durable_launch_us", unit: "us", better: "lower"},
	{name: "daemon.fsync_share", unit: "ratio", better: "lower"},
	{name: "daemon.durable_single_per_s", unit: "1/s", better: "higher"},
	{name: "daemon.durable_batch_per_s", unit: "1/s", better: "higher"},
	{name: "daemon.durable_source_per_s", unit: "1/s", better: "higher"},
	{name: "daemon.recover_s", unit: "s", better: "lower"},
	{name: "daemon.recovered_records", unit: "count", better: "lower"},
	{name: "daemon.drain_us", unit: "us", better: "lower"},
	{name: "client.open_us", unit: "us", better: "lower"},
	{name: "client.close_us", unit: "us", better: "lower"},
	{name: "client.sync_idle_us", unit: "us", better: "lower"},
	{name: "client.sync_after32_us", unit: "us", better: "lower"},
	{name: "client.launch_p99_us", unit: "us", better: "lower"},
	{name: "client.launch_p999_us", unit: "us", better: "lower"},
	{name: "client.batch_p99_us", unit: "us", better: "lower"},
	{name: "inject.transform_us", unit: "us", better: "lower"},
	{name: "nvrtc.compile_cold_us", unit: "us", better: "lower"},
	{name: "nvrtc.compile_hit_us", unit: "us", better: "lower"},
	{name: "nvrtc.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "host.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "op_p50_us", unit: "us", better: "lower"},
	{name: "op_p95_us", unit: "us", better: "lower"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

// metricValue is one reported metric in the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// exitCode is what the process returns for r: a failed output check is a
// failed run, not a warning.
func exitCode(r *result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

// buildMetrics attaches units to vals and checks that exactly the declared
// metrics were measured: a missing or undeclared name is a bug in the
// benchmark, not a result.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if err := validName(d.name); err != nil {
			return nil, err
		}
		if err := validUnit(d.unit); err != nil {
			return nil, fmt.Errorf("metric %s: %w", d.name, err)
		}
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
