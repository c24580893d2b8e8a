package main

import (
	"fmt"
	"runtime"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	// stateDir is this process's private directory for journals, checkpoints
	// and the Unix socket.
	stateDir string
	// scale divides warm-up counts, probe iteration counts and the size of
	// the simulated model. 1 is the benchmark; the smoke tests use 100 so
	// every code path runs in a fraction of a second.
	scale int
	// setups is how many times set-up is repeated; setup_s is their median.
	setups int
	// start is when the process started, so the first set-up's time excludes
	// nothing; zero times it from its own beginning.
	start time.Time
	// floor is what a window must reach for its numbers to be reported.
	floor floor
}

// floor holds the noise rules: a run fails rather than report a window that
// is too short or has too few samples to repeat.
type floor struct {
	window  time.Duration
	sweeps  int // fig7_*: minimum completed sweeps
	samples int // launch_*: minimum latency samples
}

// benchFloor applies to every real run. A cold sweep took 1.4 s to 1.8 s on
// the sizing host depending on the hour, so a 20 s window holds 11 to 14; the
// floor of 8 leaves room for a host a third slower before the run fails.
var benchFloor = floor{window: 15 * time.Second, sweeps: 8, samples: 1000}

// scaled divides a production count by the test scale, keeping at least min.
func (c config) scaled(n, min int) int {
	n /= c.scale
	if n < min {
		n = min
	}
	return n
}

// driver is one set-up of a workload: the closed-loop operation the single
// client repeats, and how to tear the set-up down and check what it did.
type driver struct {
	// unit names the unit of work; unitsPerOp is how many one op completes.
	unit       string
	unitsPerOp int
	// minOps is the floor on latency samples for this workload.
	minOps int
	// op performs operation i, with child spans under root when traced.
	op func(i int, tr *tracer, root int) error
	// between runs after op i inside the window but outside any op's
	// latency (launch_single's Synchronize after every 32); nil for none.
	between func(i int, tr *tracer) error
	// finish drains and tears the set-up down and returns every failed
	// output check. It is called exactly once per set-up.
	finish func() []error
	// describe is one line about the set-up for the run's header (the fig7
	// render digest); nil for none.
	describe func() string
}

// windowResult is what one timed window measured.
type windowResult struct {
	dur       time.Duration
	ops       []opSample // successful ops only: a failed op has no latency
	attempted int        // units of work
	failed    int
	notes     []string // first few failure messages
	mem       memDelta
}

// memDelta is the host memory moved during a window.
type memDelta struct {
	allocBytes uint64
	gcPause    time.Duration
}

func (w *windowResult) fail(units int, err error) {
	w.failed += units
	if len(w.notes) < 5 {
		w.notes = append(w.notes, err.Error())
	}
}

// absorb books another window's attempts and failures on w, so one result
// carries every output check of the run.
func (w *windowResult) absorb(o *windowResult) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.notes = append(w.notes, o.notes...)
}

// join adds another window of the same set-up to w: its latency samples,
// its memory and its counts. The samples keep their own window's clock, so a
// joined result is good for percentiles, not for rates.
func (w *windowResult) join(o *windowResult) {
	w.ops = append(w.ops, o.ops...)
	w.mem.allocBytes += o.mem.allocBytes
	w.mem.gcPause += o.mem.gcPause
	w.absorb(o)
}

// rate is the work done inside the window per second of window.
func (w *windowResult) rate() float64 { return segmentRates(w.ops, w.dur, 1)[0] }

// latenciesUS returns the ascending op latencies in microseconds.
func (w *windowResult) latenciesUS() []float64 {
	out := make([]float64, len(w.ops))
	for i, op := range w.ops {
		out[i] = float64(op.end-op.start) / 1e3
	}
	return sortedCopy(out)
}

// segments is how many equal parts of the window work_per_s is the median of.
const segments = 5

func (w *windowResult) workPerSec() float64 { return segmentMedianRate(w.ops, w.dur, segments) }

// runWindow drives d closed-loop from one goroutine for dur: the next op
// starts when the previous one returned. The op in flight when dur elapses
// is allowed to finish and counts for its part inside the window.
func runWindow(d *driver, dur time.Duration, tr *tracer) *windowResult {
	w := &windowResult{dur: dur, ops: make([]opSample, 0, 1<<16)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Since(start)
		if t0 >= dur {
			break
		}
		root := tr.begin("op", -1, i)
		err := d.op(i, tr, root)
		tr.end(root)
		t1 := time.Since(start)
		w.attempted += d.unitsPerOp
		if err != nil {
			w.fail(d.unitsPerOp, fmt.Errorf("op %d: %w", i, err))
		} else {
			w.ops = append(w.ops, opSample{start: t0, end: t1, units: float64(d.unitsPerOp)})
		}
		if d.between != nil {
			if err := d.between(i, tr); err != nil {
				w.attempted++
				w.fail(1, fmt.Errorf("after op %d: %w", i, err))
			}
		}
	}
	runtime.ReadMemStats(&after)
	w.mem = memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	return w
}

// finishInto runs d.finish and books each failed check as one failed op.
func finishInto(d *driver, w *windowResult) {
	for _, err := range d.finish() {
		w.attempted++
		w.fail(1, err)
	}
}

// checkFloor enforces the noise rules on an end-to-end window.
func checkFloor(cfg config, d *driver, w *windowResult) error {
	if w.dur < cfg.floor.window {
		return fmt.Errorf("window %.1fs is shorter than the %.0fs floor", w.dur.Seconds(), cfg.floor.window.Seconds())
	}
	if len(w.ops) < d.minOps {
		return fmt.Errorf("window completed %d ops, below the floor of %d", len(w.ops), d.minOps)
	}
	return nil
}
