package engine

import (
	"fmt"
	"testing"

	"slate/internal/device"
	"slate/internal/vtime"
	"slate/workloads"
)

// corunFingerprint runs the Fig. 7-style SGEMM×Transpose pairing — one Slate
// co-run on split SM ranges and, after it drains, one hardware leftover
// co-run — and folds every metric the experiments consume into a string.
// Exact (%v) formatting keeps the comparison bitwise.
func corunFingerprint(t *testing.T, workers int, rescheduleEvery bool, fanGate int) (string, uint64) {
	t.Helper()
	oldRate, oldAdv := rateFanKernels, advanceFanKernels
	rateFanKernels, advanceFanKernels = fanGate, fanGate
	defer func() { rateFanKernels, advanceFanKernels = oldRate, oldAdv }()

	clk := vtime.NewClock()
	dev := device.TitanXp()
	e := New(dev, clk, NewTraceModel(dev))
	e.Workers = workers
	e.rescheduleEveryEvent = rescheduleEvery

	sg := workloads.SGEMMApp().Kernel
	tr := workloads.TransposeApp().Kernel

	mid := dev.NumSMs / 2
	a, err := e.Launch(sg, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: mid - 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Launch(tr, LaunchOpts{Mode: SlateSched, SMLow: mid, SMHigh: dev.NumSMs - 1})
	if err != nil {
		t.Fatal(err)
	}
	run(t, clk)

	c, err := e.Launch(sg, LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Launch(tr, LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	run(t, clk)
	if e.memo.solved == 0 || e.memo.reused == 0 {
		t.Fatalf("memo solved %d and reused %d rate fixpoints; want a mix of misses and hits", e.memo.solved, e.memo.reused)
	}

	out := ""
	for _, h := range []*Handle{a, b, c, d} {
		if !h.Done() {
			t.Fatalf("kernel %q did not complete", h.Spec().Name)
		}
		m := h.Metrics()
		out += fmt.Sprintf("%s: dur=%v flops=%v l2=%v dram=%v instr=%v thr=%v sm=%v at=%v\n",
			h.Spec().Name, m.Duration(), m.FLOPs, m.L2Bytes, m.DRAMBytes,
			m.Instr, m.StallMemThrottle, m.SMSecondsIntegral, m.Atomics)
	}
	return out, clk.Fired()
}

// TestEngineWorkersBitIdentical is DESIGN.md §3's byte-identity contract at the engine layer:
// fanning computeRates' static pass and advanceProgress across goroutines
// must not change a single bit of any metric or the dispatched-event count.
// fanGate=2 forces both fans on every recompute with two or more kernels;
// the static pass fans on rate-memo misses, and each run mixes misses and
// hits.
func TestEngineWorkersBitIdentical(t *testing.T) {
	ref, refFired := corunFingerprint(t, 1, false, 2)
	for _, workers := range []int{2, 8} {
		got, gotFired := corunFingerprint(t, workers, false, 2)
		if got != ref {
			t.Fatalf("Workers=%d metrics diverged from serial:\n--- serial ---\n%s--- Workers=%d ---\n%s", workers, ref, workers, got)
		}
		if gotFired != refFired {
			t.Fatalf("Workers=%d fired %d events, serial fired %d", workers, gotFired, refFired)
		}
	}
}

// TestRescheduleSkipReducesEvents pins the recompute churn fix: with the
// skip enabled the same workload dispatches measurably fewer events, and the
// metrics the experiments render are unchanged. The skip introduces at most
// sub-nanosecond completion-time drift (remaining/rate is re-derived rather
// than carried), so metric equality is asserted at the experiments' 3-decimal
// rendering rather than bitwise.
func TestRescheduleSkipReducesEvents(t *testing.T) {
	render := func(rescheduleEvery bool) (string, uint64) {
		clk := vtime.NewClock()
		dev := device.TitanXp()
		e := New(dev, clk, NewTraceModel(dev))
		e.rescheduleEveryEvent = rescheduleEvery

		sg := workloads.SGEMMApp().Kernel
		tr := workloads.TransposeApp().Kernel
		hs := []*Handle{}
		mid := dev.NumSMs / 2
		a, err := e.Launch(sg, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: mid - 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Launch(tr, LaunchOpts{Mode: SlateSched, SMLow: mid, SMHigh: dev.NumSMs - 1})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, a, b)
		run(t, clk)
		c, err := e.Launch(sg, LaunchOpts{Mode: HardwareSched})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.Launch(tr, LaunchOpts{Mode: HardwareSched})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, c, d)
		run(t, clk)

		out := ""
		for _, h := range hs {
			m := h.Metrics()
			out += fmt.Sprintf("%s: dur=%.3fms gflops=%.3f dram=%.3f access=%.3f thr=%.3f ipc=%.3f at=%d\n",
				h.Spec().Name, m.Duration().Millis(), m.GFLOPS(), m.DRAMBW(),
				m.AccessBW(), m.StallMemThrottle, m.IPC(dev.SM.ClockHz), m.Atomics)
		}
		return out, clk.Fired()
	}

	always, firedAlways := render(true)
	skip, firedSkip := render(false)
	if firedSkip >= firedAlways {
		t.Fatalf("reschedule skip did not reduce events: %d with skip vs %d without", firedSkip, firedAlways)
	}
	if always != skip {
		t.Fatalf("reschedule skip changed rendered metrics:\n--- always ---\n%s--- skip ---\n%s", always, skip)
	}
	t.Logf("dispatched events: %d without skip, %d with skip", firedAlways, firedSkip)
}
