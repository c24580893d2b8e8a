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
// silently turn the pass into dead weight beside the old lazy builds. Every
// entry of Experiments() runs; one that runs a pass must have its count
// below, and a count must name an entry that runs one.
func TestCalibrationPassCoversTheSweep(t *testing.T) {
	// passes maps each experiment that runs a calibration pass to the
	// entries the pass must build (distinct kernels × shapes) and to the
	// harness method whose name its subtest carries.
	passes := map[string]struct {
		method  string
		entries int
	}{
		"table4":      {"TableIV", 2 * 2},
		"table5":      {"TableV", 5 * 2}, // through its Fig. 6 run
		"fig5":        {"Fig5", 5 * 6},
		"fig6":        {"Fig6", 5 * 2},
		"fig7":        {"Fig7", 5 * 2},
		"ablation":    {"Ablations", 4 * 2},
		"staticmerge": {"StaticMerge", 5 * 2},
		"triples":     {"Triples", 5 * 2},
		// Every code is measured solo, and the ten jobs sample all five.
		"cloud":    {"CloudTrace", 5 * 2},
		"extpairs": {"ExtendedPairs", 6 * 2},
	}
	check := func(t *testing.T, run func(h *Harness) error, want int, hasWant bool) {
		h := New(Config{LoopSeconds: 0.1, Parallel: 2})
		h.Model.MaxAccesses = 50_000 // which keys are asked for does not depend on trace length
		h.calibrated.Store(-1)       // a pass stores the model's size
		if err := run(h); err != nil {
			t.Fatal(err)
		}
		got := int(h.calibrated.Load())
		switch {
		case got < 0 && hasWant:
			t.Fatalf("runs no calibration pass, but an entry count of %d is expected", want)
		case got < 0:
			return
		case !hasWant:
			t.Fatalf("runs a calibration pass (%d model entries) with no expected count", got)
		case got != want:
			t.Errorf("the pass left %d model entries, want %d", got, want)
		}
		if got := h.Model.Len(); got != want {
			t.Errorf("the model holds %d entries after the cells, the pass built %d: the cells asked for keys it does not know",
				got, want)
		}
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		pass, ok := passes[e.Name]
		seen[e.Name] = true
		name := e.Name
		if ok {
			name = pass.method
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			check(t, func(h *Harness) error { _, err := e.Run(h); return err }, pass.entries, ok)
		})
	}
	for name := range passes {
		if !seen[name] {
			t.Errorf("an entry count names %q, which Experiments() does not hold", name)
		}
	}
	t.Run("SimBenchCell", func(t *testing.T) {
		t.Parallel()
		check(t, func(h *Harness) error { _, err := h.SimBenchCell(1); return err }, 2*2, true)
	})
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
