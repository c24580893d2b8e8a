// Command benchmark is the one yardstick for this repository's two numbers:
// how fast the Fig. 7 evaluation regenerates, and how fast durable launches
// go through client → ipc → daemon → journal → executor → ack. One process
// runs one workload; see README.md and ../BENCHMARK.json.
//
//	go run ./benchmark -workload fig7_cold -seed 1             end-to-end metrics
//	go run ./benchmark -workload launch_single -seed 1 -trace 1  per-layer metrics
//	go run ./benchmark -aa                                     two sets of runs of one commit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// procStart is as close to process start as Go code gets; the first set-up
// is timed from here.
var procStart = time.Now()

// tracedWindow is the length of the traced run's windows. Its per-layer
// numbers have no bound to meet, so it spends its time on the probes.
const tracedWindow = 5 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: fig7_cold, fig7_warm, launch_single, launch_batch, launch_source")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run, spans written there")
	stateDir := flag.String("state-dir", ".bench_state", "directory for journals, checkpoints and sockets; this run's part of it is removed on exit")
	aa := flag.Bool("aa", false, "run every workload sets × runs times and compare the sets (no -workload)")
	sets := flag.Int("sets", 2, "-aa: number of sets")
	runs := flag.Int("runs", 5, "-aa: runs per workload per set")
	flag.Parse()

	if *aa {
		os.Exit(runAA(os.Stdout, *sets, *runs, *seconds, *stateDir))
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -workload or -aa is required")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		scale: 1, setups: 3, floor: benchFloor, start: procStart,
	}
	code, err := runIn(*stateDir, cfg, *trace, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// runIn gives the run a private directory under stateDir, removes it on
// every path out, and prints the result object as the last line.
func runIn(stateDir string, cfg config, trace string, out io.Writer) (int, error) {
	_, statErr := os.Stat(stateDir)
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(stateDir, "run-")
	if err != nil {
		return 0, err
	}
	defer func() {
		os.RemoveAll(dir)
		if errors.Is(statErr, os.ErrNotExist) {
			os.Remove(stateDir) // ours: goes once the last run's directory is gone
		}
	}()
	cfg.stateDir = dir

	var r *result
	if trace == "0" || trace == "" {
		r, err = runEndToEnd(cfg, out)
	} else {
		if trace == "1" {
			trace = fmt.Sprintf(".bench_trace/%s-seed%d.json", cfg.workload, cfg.seed)
		}
		r, err = runTraced(cfg, trace, out)
	}
	if err != nil {
		return 0, err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return exitCode(r), nil
}

// setup performs one set-up of cfg's workload.
func setup(cfg config) (*driver, error) {
	switch cfg.workload {
	case "fig7_cold":
		return setupFig7(cfg, false)
	case "fig7_warm":
		return setupFig7(cfg, true)
	case "launch_single":
		return setupLaunch(cfg, kindSingle)
	case "launch_batch":
		return setupLaunch(cfg, kindBatch)
	case "launch_source":
		return setupLaunch(cfg, kindSource)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// setupTimed sets the workload up cfg.setups times and returns the last
// set-up with the median set-up time. Nothing is excluded: the first is timed
// from process start, and each includes its warm-up. The earlier set-ups are
// torn down through finish, so their output checks count too.
func setupTimed(cfg config, w *windowResult) (*driver, float64, error) {
	var d *driver
	times := make([]float64, cfg.setups)
	for k := range times {
		if d != nil {
			finishInto(d, w)
		}
		t0 := time.Now()
		if k == 0 && !cfg.start.IsZero() {
			t0 = cfg.start
		}
		var err error
		if d, err = setup(cfg); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times[k] = time.Since(t0).Seconds()
	}
	return d, median(times), nil
}

// runEndToEnd is the untraced run: set-up, one window, the output checks,
// and the end-to-end metrics.
func runEndToEnd(cfg config, out io.Writer) (*result, error) {
	printHeader(out, cfg, false)
	checks := &windowResult{} // failed checks of the torn-down set-ups
	d, setupS, err := setupTimed(cfg, checks)
	if err != nil {
		return nil, err
	}
	if d.describe != nil {
		fmt.Fprintf(out, "# %s\n", d.describe())
	}
	w := runWindow(d, cfg.window, nil)
	finishInto(d, w)
	w.absorb(checks)
	if err := checkFloor(cfg, d, w); err != nil {
		for _, n := range w.notes {
			fmt.Fprintf(out, "FAILED: %s\n", n)
		}
		return nil, err
	}
	lat := w.latenciesUS()
	vals := map[string]float64{
		"setup_s":    setupS,
		"work_per_s": w.workPerSec(),
	}
	fmt.Fprintf(out, "samples=%d unit_of_work=%s units_per_op=%d segments=%d segment_rates_per_s=%.6g\n",
		len(lat), d.unit, d.unitsPerOp, segments, segmentRates(w.ops, w.dur, segments))
	// Not metrics of this run: the latency distribution is bounded by no
	// one, and is reported per layer by the traced run.
	fmt.Fprintf(out, "op latency (informational): p50=%.6g us p95=%.6g us, highest percentile with 10 samples beyond it: p%g\n",
		percentile(lat, 50), percentile(lat, 95), highestPercentile(len(lat)))
	return report(out, endToEndDefs, vals, w)
}

// runTraced is the traced run: four half-length windows of the workload on
// one set-up, untraced-traced-traced-untraced, then every layer probe, spans
// written out at the end. The order is so that whatever moves both kinds of
// window alike — a process still warming up, a host drifting — cancels out of
// their ratio, the tracing overhead.
func runTraced(cfg config, traceOut string, out io.Writer) (*result, error) {
	cfg.window = min(cfg.window, tracedWindow)
	cfg.setups = 1
	printHeader(out, cfg, true)
	checks := &windowResult{}
	d, _, err := setupTimed(cfg, checks)
	if err != nil {
		return nil, err
	}
	if d.describe != nil {
		fmt.Fprintf(out, "# %s\n", d.describe())
	}
	tr := newTracer()
	untraced, traced := &windowResult{}, &windowResult{}
	var untracedRate, tracedRate float64
	for _, t := range []*tracer{nil, tr, tr, nil} {
		w := runWindow(d, cfg.window/2, t)
		if t == nil {
			untracedRate += w.rate() / 2
			untraced.join(w)
		} else {
			tracedRate += w.rate() / 2
			traced.join(w)
		}
	}
	if len(untraced.ops) == 0 || len(traced.ops) == 0 {
		return nil, fmt.Errorf("no op completed in a %.1fs window: %v", cfg.window.Seconds(), append(untraced.notes, traced.notes...))
	}
	finishInto(d, traced)
	traced.absorb(checks)
	traced.absorb(untraced)

	vals, err := runProbes(cfg, tr)
	if err != nil {
		return nil, err
	}
	lat := untraced.latenciesUS()
	vals["host.alloc_mb_per_op"] = float64(traced.mem.allocBytes) / 1e6 / float64(len(traced.ops))
	vals["host.gc_pause_ms"] = traced.mem.gcPause.Seconds() * 1e3
	vals["host.peak_rss_mb"] = peakRSSMB()
	vals["op_p50_us"] = percentile(lat, 50)
	vals["op_p95_us"] = percentile(lat, 95)
	vals["trace_overhead_frac"] = 1 - tracedRate/untracedRate
	vals["fail_frac"] = float64(traced.failed) / float64(traced.attempted)

	fmt.Fprintf(out, "untraced: work_per_s=%.6g op_p50_us=%.6g samples=%d highest_percentile_with_10_beyond=p%g\n",
		untracedRate, percentile(lat, 50), len(lat), highestPercentile(len(lat)))
	fmt.Fprintf(out, "traced:   work_per_s=%.6g op_p50_us=%.6g samples=%d\n",
		tracedRate, percentile(traced.latenciesUS(), 50), len(traced.ops))
	tr.printBudget(out)
	if err := tr.writeFile(traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "spans=%d written to %s\n", len(tr.spans), traceOut)
	return report(out, perLayerDefs, vals, traced)
}

// report prints every metric by name with its unit, then the counts, and
// returns the result object.
func report(out io.Writer, defs []metricDef, vals map[string]float64, w *windowResult) (*result, error) {
	metrics, err := buildMetrics(defs, vals)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		exact := ""
		if exactMetrics[name] {
			exact = "  (exact)"
		}
		fmt.Fprintf(out, "%-36s %16.6f %s%s\n", name, metrics[name].Value, metrics[name].Unit, exact)
	}
	for _, n := range w.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	fmt.Fprintf(out, "attempted=%d failed=%d fail_frac=%g\n", w.attempted, w.failed, float64(w.failed)/float64(w.attempted))
	return &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: metrics}, nil
}
