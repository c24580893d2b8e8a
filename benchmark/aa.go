package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is what one workload process printed.
type childRun struct {
	res    result
	digest string // fig7 render digest from the header, "" otherwise
}

// runChild runs one workload in a fresh process of this same binary and
// parses the result object off its last line.
func runChild(workload string, seed int64, seconds int, trace, stateDir string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-state-dir", stateDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	c := &childRun{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v): %s", workload, seed, runErr, strings.TrimSpace(stderr.String()))
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %v: attempted=%d failed=%d", workload, seed, runErr, c.res.Attempted, c.res.Failed)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# render_sha256="); ok {
			c.digest, _, _ = strings.Cut(rest, " ")
		}
	}
	return c, nil
}

// worse is how much worse b is than a as a share of a, in the metric's own
// direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload sets × runs times, alternating sets so drift on
// the host lands on all of them, each run of a set with another seed. Per
// workload and end-to-end metric it prints each set's quartiles, its spread
// (Q3−Q1 as a share of the median), and the gap between the first set's
// median and each later one's. A spread or a gap over the metric's bound
// fails, as does an exact count that differs between two sets' traced runs.
func runAA(out io.Writer, sets, runs, seconds int, stateDir string) int {
	fmt.Fprintf(out, "# A/A: %d sets x %d runs per workload, seeds 1..%d, window %ds, one traced run per set at seed 1\n", sets, runs, runs, seconds)
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
	}
	// samples[workload][set][metric] = one value per run.
	samples := map[string][]map[string][]float64{}
	traced := map[string][]map[string]metricValue{}
	digests := map[string]map[int64]string{}
	for _, wl := range workloadDefs {
		samples[wl.name] = make([]map[string][]float64, sets)
		for s := range samples[wl.name] {
			samples[wl.name][s] = map[string][]float64{}
		}
		traced[wl.name] = make([]map[string]metricValue, sets)
		digests[wl.name] = map[int64]string{}
	}
	for r := 0; r < runs; r++ {
		for s := 0; s < sets; s++ {
			for _, wl := range workloadDefs {
				seed := int64(r + 1)
				c, err := runChild(wl.name, seed, seconds, "0", stateDir)
				if err != nil {
					fail("%v", err)
					continue
				}
				for name, v := range c.res.Metrics {
					samples[wl.name][s][name] = append(samples[wl.name][s][name], v.Value)
				}
				if c.digest != "" {
					if prev, ok := digests[wl.name][seed]; ok && prev != c.digest {
						fail("%s seed %d: render digest %s differs from an earlier run's %s", wl.name, seed, c.digest, prev)
					}
					digests[wl.name][seed] = c.digest
				}
				if r == 0 {
					t, err := runChild(wl.name, 1, seconds, "1", stateDir)
					if err != nil {
						fail("traced %v", err)
						continue
					}
					traced[wl.name][s] = t.res.Metrics
				}
			}
		}
	}
	for seed, d := range digests["fig7_cold"] {
		if w := digests["fig7_warm"][seed]; w != d {
			fail("seed %d: fig7_cold render %s differs from fig7_warm's %s", seed, d, w)
		}
	}

	fmt.Fprintf(out, "%-14s %-11s %3s %14s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "gap", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			var first float64
			for s := 0; s < sets; s++ {
				xs := samples[wl.name][s][d.name]
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				spread := (q3 - q1) / q2
				gap := 0.0
				if s == 0 {
					first = q2
				} else {
					gap = worse(d, first, q2)
				}
				verdict := "PASS"
				// setup_s is held to its bound on the gap only: the driver
				// does not bound its spread either.
				if gap > d.bound || (spread > d.bound && d.name != "setup_s") {
					verdict = "FAIL"
					failures++
				}
				fmt.Fprintf(out, "%-14s %-11s %3d %14.6g %14.6g %14.6g %7.2f%% %+7.2f%% %5.0f%%  %s  runs=%.5g\n",
					wl.name, d.name, s+1, q1, q2, q3, spread*100, gap*100, d.bound*100, verdict, xs)
			}
		}
	}

	fmt.Fprintf(out, "exact counts of the traced runs (seed 1), and their tracing overhead:\n")
	for _, wl := range workloadDefs {
		for s := 0; s < sets; s++ {
			if traced[wl.name][s] == nil {
				continue
			}
			fmt.Fprintf(out, "%-14s set %d trace_overhead_frac=%+.4f\n", wl.name, s+1, traced[wl.name][s]["trace_overhead_frac"].Value)
			for _, d := range perLayerDefs {
				if !exactMetrics[d.name] || traced[wl.name][0] == nil {
					continue
				}
				a, b := traced[wl.name][0][d.name].Value, traced[wl.name][s][d.name].Value
				if a != b {
					fail("%s %s: set 1 read %v, set %d read %v", wl.name, d.name, a, s+1, b)
				} else if s == 0 {
					fmt.Fprintf(out, "  %-34s %v\n", d.name, a)
				}
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(out, "A/A FAILED: %d check(s)\n", failures)
		return 1
	}
	fmt.Fprintf(out, "A/A PASSED\n")
	return 0
}
