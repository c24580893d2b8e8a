package engine

import (
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/traces"
)

func traceSpec(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(2048), BlockDim: kern.D1(64),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 50 << 10,
		ComputeEff: 0.1,
		Pattern: traces.RowSweep{
			Blocks: 2048, PivotBytes: 4096, SliceBytes: 32 << 10,
			SliceOverlap: 8 << 10, LineBytes: 64, RowBase: 1 << 22,
		},
	}
}

func TestTraceModelOrderSensitivity(t *testing.T) {
	m := NewTraceModel(device.TitanXp())
	spec := traceSpec("tm")
	hw := m.HitRate(spec, HardwareSched, 1, 3<<20)
	sl := m.HitRate(spec, SlateSched, 10, 3<<20)
	if sl <= hw {
		t.Fatalf("slate hit %.3f not above hardware %.3f for an overlap pattern", sl, hw)
	}
	rhw := m.MeanRunBytes(spec, HardwareSched, 1)
	rsl := m.MeanRunBytes(spec, SlateSched, 10)
	if rsl <= rhw {
		t.Fatalf("slate runs %.0fB not above hardware %.0fB", rsl, rhw)
	}
}

func TestTraceModelMemoizes(t *testing.T) {
	m := NewTraceModel(device.TitanXp())
	spec := traceSpec("memo")
	a := m.HitRate(spec, SlateSched, 10, 1<<20)
	b := m.HitRate(spec, SlateSched, 10, 1<<20)
	if a != b {
		t.Fatal("memoized hit rate differs")
	}
	// Instance suffixes share the entry.
	inst := traceSpec("memo@7")
	if got := m.HitRate(inst, SlateSched, 10, 1<<20); got != a {
		t.Fatalf("instance-suffixed kernel got %.3f, base %.3f; '@' sharing broken", got, a)
	}
	// Hardware mode ignores task size.
	h1 := m.HitRate(spec, HardwareSched, 1, 1<<20)
	h2 := m.HitRate(spec, HardwareSched, 50, 1<<20)
	if h1 != h2 {
		t.Fatal("hardware-mode hit rate depends on task size")
	}
}

func TestTraceModelHitRateGrowsWithCache(t *testing.T) {
	m := NewTraceModel(device.TitanXp())
	spec := traceSpec("mrc")
	prev := -1.0
	for _, sz := range []float64{64 << 10, 512 << 10, 3 << 20, 6 << 20} {
		h := m.HitRate(spec, SlateSched, 10, sz)
		if h < prev-1e-9 {
			t.Fatalf("hit rate decreased with larger cache at %v", sz)
		}
		if h < 0 || h > 1 {
			t.Fatalf("hit rate %v out of range", h)
		}
		prev = h
	}
}

func TestTraceModelPatternlessKernels(t *testing.T) {
	m := NewTraceModel(device.TitanXp())
	// Memory-carrying kernel without a pattern falls back to streaming.
	noPat := &kern.Spec{
		Name: "nopat", Grid: kern.D1(6000), BlockDim: kern.D1(64),
		FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1 << 20, ComputeEff: 0.5,
	}
	if r := m.MeanRunBytes(noPat, SlateSched, 10); r < 4096 {
		t.Fatalf("streaming fallback run bytes = %v", r)
	}
	// A compute-only kernel (no memory traffic) reports miss-everything.
	pure := &kern.Spec{
		Name: "pure", Grid: kern.D1(64), BlockDim: kern.D1(64),
		FLOPsPerBlock: 1e6, InstrPerBlock: 1e6, ComputeEff: 0.5,
	}
	if h := m.HitRate(pure, SlateSched, 10, 3<<20); h != 0 {
		t.Fatalf("pure-compute hit rate = %v, want 0", h)
	}
}

func TestInterpolate(t *testing.T) {
	xs := []float64{10, 20, 40}
	ys := []float64{1.0, 0.5, 0.25}
	cases := []struct{ x, want float64 }{
		{5, 1.0},   // clamp low
		{10, 1.0},  // exact
		{15, 0.75}, // midpoint
		{40, 0.25}, // exact end
		{80, 0.25}, // clamp high
	}
	for _, c := range cases {
		if got := interpolate(xs, ys, c.x); got != c.want {
			t.Errorf("interpolate(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if interpolate(nil, nil, 5) != 0 {
		t.Error("empty interpolation should be 0")
	}
}

func TestModeStringAndAccessors(t *testing.T) {
	if HardwareSched.String() != "hardware" || SlateSched.String() != "slate" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
	e, clk := newEngine()
	h, err := e.Launch(computeKernel("acc", 240), LaunchOpts{Mode: SlateSched, SMLow: 3, SMHigh: 17})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := h.SMRange(); lo != 3 || hi != 17 {
		t.Fatalf("SMRange = [%d,%d]", lo, hi)
	}
	if e.Running() != 1 {
		t.Fatalf("Running = %d", e.Running())
	}
	clk.Run(0)
	if e.Running() != 0 {
		t.Fatal("Running not drained")
	}
}

func TestMetricsZeroDuration(t *testing.T) {
	var m Metrics
	if m.GFLOPS() != 0 || m.AccessBW() != 0 || m.DRAMBW() != 0 || m.IPC(1e9) != 0 {
		t.Fatal("zero-duration metrics should report 0 rates")
	}
}

func TestNewEnginePanicsOnInvalidDevice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid device accepted")
		}
	}()
	bad := device.TitanXp()
	bad.NumSMs = 0
	New(bad, nil, staticModel())
}
