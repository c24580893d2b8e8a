package harness

import (
	"testing"

	"slate/workloads"
)

// TestCalibrationPassCoversTheSweep holds the pass to its purpose: on a cold
// harness, every experiment that runs one finds each trace-model entry its
// cells ask for already built, so the model is the size the pass left it. It
// fails when a cell asks for a key the pass does not build — a default task
// size changed in one place, a kernel left out of the list — which would
// silently turn the pass into dead weight beside the old lazy builds.
func TestCalibrationPassCoversTheSweep(t *testing.T) {
	for _, exp := range []struct {
		name string
		// entries is distinct kernels × shapes, what the pass must build.
		entries int
		run     func(h *Harness) error
	}{
		{"Fig5", 5 * 6, func(h *Harness) error { _, err := h.Fig5(); return err }},
		{"Fig6", 5 * 2, func(h *Harness) error { _, err := h.Fig6(); return err }},
		{"Fig7", 5 * 2, func(h *Harness) error { _, err := h.Fig7(); return err }},
		{"TableIV", 2 * 2, func(h *Harness) error { _, err := h.TableIV(); return err }},
		{"SimBenchCell", 2 * 2, func(h *Harness) error { _, err := h.SimBenchCell(1); return err }},
		{"Ablations", 4 * 2, func(h *Harness) error { _, err := h.Ablations(); return err }},
		{"ExtendedPairs", 6 * 2, func(h *Harness) error { _, err := h.ExtendedPairs(); return err }},
		{"Triples", 5 * 2, func(h *Harness) error { _, err := h.Triples(); return err }},
		{"StaticMerge", 5 * 2, func(h *Harness) error { _, err := h.StaticMerge(); return err }},
		// Every code is measured solo; this mix samples four of the five.
		{"CloudTrace", 5 + 4, func(h *Harness) error {
			_, err := h.CloudTrace(CloudTraceConfig{Jobs: 6, Seed: 3})
			return err
		}},
	} {
		t.Run(exp.name, func(t *testing.T) {
			t.Parallel()
			h := New(Config{LoopSeconds: 0.1, Parallel: 2})
			h.Model.MaxAccesses = 50_000 // which keys are asked for does not depend on trace length
			if err := exp.run(h); err != nil {
				t.Fatal(err)
			}
			if got := int(h.calibrated.Load()); got != exp.entries {
				t.Errorf("the pass left %d model entries, want %d", got, exp.entries)
			}
			if got := h.Model.Len(); got != exp.entries {
				t.Errorf("the model holds %d entries after the cells, the pass built %d: the cells asked for keys it does not know",
					got, exp.entries)
			}
		})
	}
}

// TestCalibrationPassDedupesByContent: renamed instances of one kernel are
// one item, and a warm pass builds nothing.
func TestCalibrationPassDedupesByContent(t *testing.T) {
	h := New(Config{LoopSeconds: 0.1, Parallel: 2})
	h.Model.MaxAccesses = 50_000
	a, b := workloads.QuasiRandomApp(), workloads.QuasiRandomApp()
	b.Kernel.Name = "RG@2"
	for pass := 0; pass < 2; pass++ {
		h.calibrate(sweepShapes, []*workloads.App{a, b}, []*workloads.App{a})
		if got := h.Model.Len(); got != len(sweepShapes) {
			t.Fatalf("pass %d: %d entries, want %d", pass, got, len(sweepShapes))
		}
	}
}
