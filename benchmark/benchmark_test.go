package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slate/internal/ipc"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %g, want 7", got)
	}
	// Nearest rank never interpolates: p50 of two samples is the lower one.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("p50 of {1,100} = %g, want 1", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{13, 0},       // a cold-sweep window: not even the median has ten beyond
		{19, 0},       // rank 10, nine beyond
		{20, 50},      // rank 10, ten beyond
		{72, 75},      // a warm-sweep window: rank 54, 18 beyond; p90 leaves 7
		{199, 90},     // p95 is rank 190, nine beyond
		{200, 95},     // rank 190, ten beyond
		{1000, 99},    // rank 990, ten beyond
		{9999, 99},    // p99.9 is rank 9990, nine beyond
		{10000, 99.9}, // rank 9990, ten beyond
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSegmentMedianRate(t *testing.T) {
	sec := time.Second
	// Ten back-to-back one-second ops of 45 units in a 10 s window, five 2 s
	// segments: every segment sees 45 units/s.
	var steady []opSample
	for i := 0; i < 10; i++ {
		steady = append(steady, opSample{start: time.Duration(i) * sec, end: time.Duration(i+1) * sec, units: 45})
	}
	for i, r := range segmentRates(steady, 10*sec, 5) {
		if math.Abs(r-45) > 1e-9 {
			t.Errorf("steady segment %d = %g units/s, want 45", i, r)
		}
	}

	// An op straddling a segment boundary is split by time, not booked whole:
	// 3 s ops against 2 s segments still read 15 units/s everywhere.
	straddle := []opSample{
		{start: 0, end: 3 * sec, units: 45}, {start: 3 * sec, end: 6 * sec, units: 45},
		{start: 6 * sec, end: 9 * sec, units: 45}, {start: 9 * sec, end: 12 * sec, units: 45},
	}
	for i, r := range segmentRates(straddle, 10*sec, 5) {
		if math.Abs(r-15) > 1e-9 {
			t.Errorf("straddling segment %d = %g units/s, want 15", i, r)
		}
	}

	// One stalled segment moves that segment, not the median.
	stalled := append([]opSample(nil), steady[:4]...)
	stalled = append(stalled, steady[6:]...) // nothing completes in [4 s, 6 s)
	rates := segmentRates(stalled, 10*sec, 5)
	if rates[2] != 0 {
		t.Errorf("stalled segment = %g units/s, want 0", rates[2])
	}
	if got := segmentMedianRate(stalled, 10*sec, 5); math.Abs(got-45) > 1e-9 {
		t.Errorf("median with one stalled segment = %g, want 45", got)
	}

	// Time between ops does no work: 1 s ops with 1 s gaps halve the rate.
	var gapped []opSample
	for i := 0; i < 5; i++ {
		gapped = append(gapped, opSample{start: time.Duration(2*i) * sec, end: time.Duration(2*i+1) * sec, units: 10})
	}
	if got := segmentMedianRate(gapped, 10*sec, 5); math.Abs(got-5) > 1e-9 {
		t.Errorf("gapped rate = %g, want 5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}

func TestNameValidator(t *testing.T) {
	for _, ok := range []string{"fig7_cold", "op_p50_us", "ipc.batch32_frame_bytes", "a-b", "7up"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "p50 us", "µs", "a/b", ".hidden", "_x", strings.Repeat("x", 65)} {
		if err := validName(bad); err == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "µs", "percentage points", strings.Repeat("u", 17)} {
		if err := validUnit(bad); err == nil {
			t.Errorf("validUnit(%q) accepted", bad)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON holds every name, unit, direction and
// bound the program can emit to the contract's character rules and to
// BENCHMARK.json, in both directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if err := validName(name); err != nil {
			t.Error(err)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		unique(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, b.Workloads[i], w)
		}
	}

	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, d := range endToEndDefs {
		unique(d.name)
		if err := validUnit(d.unit); err != nil {
			t.Error(err)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		unique(d.name)
		if err := validUnit(d.unit); err != nil {
			t.Error(err)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: direction %q", d.name, d.better)
		}
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}
	for name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %q is not declared", name)
		}
	}
	if b.RunSeconds < int(benchFloor.window.Seconds()) || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d is below the %v floor or above 60", b.RunSeconds, benchFloor.window)
	}
}

// smokeConfig runs a workload at 1/100 scale with a 0.3 s window.
func smokeConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 1, window: 300 * time.Millisecond, stateDir: t.TempDir(),
		scale: 100, setups: 2, floor: floor{window: 300 * time.Millisecond, sweeps: 1, samples: 1},
	}
}

// checkEmitted holds a result's metrics to defs exactly: same names, same
// units, finite values.
func checkEmitted(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s emitted in %q, declared in %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestSmokeEveryWorkload runs each workload end to end and traced at small
// scale: every output check passes, and the names and units that come out
// are the declared ones.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, w.name)
			var out bytes.Buffer
			r, err := runEndToEnd(cfg, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || exitCode(r) != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
			}
			checkEmitted(t, r, endToEndDefs)
			for _, d := range endToEndDefs {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, r.Metrics[d.name].Value)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("metric %s is not printed by name", d.name)
				}
			}

			out.Reset()
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			r, err = runTraced(cfg, tracePath, &out)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, out.String())
			}
			if exitCode(r) != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", r.Correct, r.Failed, out.String())
			}
			checkEmitted(t, r, perLayerDefs)
			var tf struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(tf.TraceEvents), err)
			}
		})
	}
}

// TestExactCountsRepeat runs the probes twice at one seed: every count
// marked exact reads the same both times.
func TestExactCountsRepeat(t *testing.T) {
	cfg := smokeConfig(t, "fig7_warm")
	a, err := runProbes(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runProbes(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name := range exactMetrics {
		va, ok := a[name]
		if !ok {
			continue // measured by the run, not by a probe
		}
		if va != b[name] {
			t.Errorf("%s read %v, then %v", name, va, b[name])
		}
	}
}

// failedRun drives one window whose every op fails with opErr and returns
// the result it reports.
func failedRun(t *testing.T, opErr error) *result {
	t.Helper()
	d := &driver{
		unit: "op", unitsPerOp: 1,
		op:     func(int, *tracer, int) error { time.Sleep(time.Millisecond); return opErr },
		finish: func() []error { return nil },
	}
	w := runWindow(d, 20*time.Millisecond, nil)
	finishInto(d, w)
	vals := map[string]float64{"setup_s": 1, "work_per_s": 1}
	r, err := report(io.Discard, endToEndDefs, vals, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCorruptedRenderFailsTheRun(t *testing.T) {
	golden := "Fig. 7 — Normalized application time per pairing\nBS-BS 1.000 0.700 0.650\n"
	if err := checkRender(golden, golden); err != nil {
		t.Fatalf("identical render rejected: %v", err)
	}
	err := checkRender(strings.Replace(golden, "0.650", "0.651", 1), golden)
	if err == nil {
		t.Fatal("a render that differs in one digit passed the check")
	}
	r := failedRun(t, err)
	if r.Correct || r.Failed == 0 || float64(r.Failed)/float64(r.Attempted) <= 0 || exitCode(r) == 0 {
		t.Errorf("corrupted render: correct=%v failed=%d/%d exit=%d", r.Correct, r.Failed, r.Attempted, exitCode(r))
	}
}

func TestNonZeroAckFailsTheRun(t *testing.T) {
	acks := make([]ipc.BatchAck, batchSize)
	if err := checkAcks(acks, true); err != nil {
		t.Fatalf("clean acks rejected: %v", err)
	}
	for name, spoil := range map[string]func(*ipc.BatchAck){
		"code":     func(a *ipc.BatchAck) { a.Code, a.Err = ipc.CodeBackpressure, "queue full" },
		"dup":      func(a *ipc.BatchAck) { a.Dup = true },
		"degraded": func(a *ipc.BatchAck) { a.Degraded = true },
	} {
		bad := make([]ipc.BatchAck, batchSize)
		spoil(&bad[17])
		err := checkAcks(bad, true)
		if err == nil {
			t.Errorf("%s: spoiled ack passed the check", name)
			continue
		}
		r := failedRun(t, err)
		if r.Correct || r.Failed == 0 || exitCode(r) == 0 {
			t.Errorf("%s: correct=%v failed=%d exit=%d", name, r.Correct, r.Failed, exitCode(r))
		}
	}
	if err := checkAcks(acks[:batchSize-1], false); err == nil {
		t.Error("a short ack list passed the check")
	}
	// A degraded ack only matters on the source path.
	spec := make([]ipc.BatchAck, batchSize)
	spec[0].Degraded = true
	if err := checkAcks(spec, false); err != nil {
		t.Errorf("spec batch: %v", err)
	}
}

// TestFloorFailsShortWindows holds the noise rules: a window below the
// floor, or with too few samples, is an error and not a result.
func TestFloorFailsShortWindows(t *testing.T) {
	cfg := config{floor: benchFloor}
	d := &driver{minOps: benchFloor.samples}
	enough := make([]opSample, benchFloor.samples)
	if err := checkFloor(cfg, d, &windowResult{dur: 14 * time.Second, ops: enough}); err == nil {
		t.Error("a 14 s window was accepted")
	}
	if err := checkFloor(cfg, d, &windowResult{dur: 20 * time.Second, ops: enough[:999]}); err == nil {
		t.Error("999 latency samples were accepted")
	}
	if err := checkFloor(cfg, &driver{minOps: benchFloor.sweeps}, &windowResult{dur: 20 * time.Second, ops: enough[:benchFloor.sweeps-1]}); err == nil {
		t.Errorf("%d sweeps were accepted", benchFloor.sweeps-1)
	}
	if err := checkFloor(cfg, d, &windowResult{dur: 20 * time.Second, ops: enough}); err != nil {
		t.Errorf("a full window was rejected: %v", err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "submit", parent: 0, start: 10, end: 40},
		{name: "sync", parent: 0, start: 40, end: 90},
	}}
	got := map[string]spanTotal{}
	for _, st := range tr.totals() {
		got[st.name] = st
	}
	if got["op"].self != 20 || got["op"].total != 100 {
		t.Errorf("op: total %d self %d, want 100 and 20", got["op"].total, got["op"].self)
	}
	if got["submit"].self != 30 || got["sync"].self != 50 {
		t.Errorf("children: submit %d sync %d, want 30 and 50", got["submit"].self, got["sync"].self)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // the untraced run records nothing and must not crash
}
