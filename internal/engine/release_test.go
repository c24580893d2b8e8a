package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// releaseRun is what one run of releaseScenario observed.
type releaseRun struct {
	metrics     []Metrics
	completions []vtime.Time
	fired       uint64
	launches    int
	handles     int // distinct *Handle values Launch returned
}

// releaseScenario runs a seeded launch sequence: three looped streams (two
// Slate partitions and a hardware kernel on the leftover SMs), each
// launching its next rep from a completion callback, plus random resizes of
// stream 0 and one eviction of stream 1, after which stream 1 relaunches
// outside any callback. With release set, every finished handle goes back
// to the engine as soon as its metrics are read. afterEvent, when not nil,
// runs after every event.
func releaseScenario(t *testing.T, seed int64, release bool, afterEvent func(*Engine)) releaseRun {
	t.Helper()
	const reps = 6
	rng := rand.New(rand.NewSource(seed))
	opts := []LaunchOpts{
		{Mode: SlateSched, TaskSize: 1 + rng.Intn(12), SMLow: 0, SMHigh: 9},
		{Mode: SlateSched, TaskSize: 1 + rng.Intn(12), SMLow: 10, SMHigh: 19},
		{Mode: HardwareSched},
	}
	// Every kernel has its own locality, so a reused handle that kept its
	// predecessor's would run at the wrong rates.
	model := &StaticModel{DefaultRunBytes: 1 << 20, SlateRunFactor: 1, Hit: map[string]float64{}, RunBytes: map[string]float64{}}
	specs := make([][]*kern.Spec, len(opts))
	for s := range specs {
		for r := 0; r < reps; r++ {
			spec := randomSpec(rng, fmt.Sprintf("s%dr%d", s, r))
			model.Hit[spec.Name] = 0.8 * rng.Float64()
			model.RunBytes[spec.Name] = float64(int(64) << rng.Intn(16))
			specs[s] = append(specs[s], spec)
		}
	}
	type resize struct {
		at     vtime.Time
		lo, hi int
	}
	resizes := make([]resize, 8)
	for i := range resizes {
		lo := rng.Intn(5)
		resizes[i] = resize{at: vtime.Time(1000 + rng.Intn(20_000_000)), lo: lo, hi: lo + 1 + rng.Intn(9-lo)}
	}
	evictAt := vtime.Time(1000 + rng.Intn(2_000_000))

	clk := vtime.NewClock()
	e := New(device.TitanXp(), clk, model)
	var out releaseRun
	seen := map[*Handle]bool{}
	rep := make([]int, len(opts))
	cur := make([]*Handle, len(opts)) // nil while a stream has no kernel running
	finish := func(s int, h *Handle, m Metrics) {
		out.metrics = append(out.metrics, m)
		out.completions = append(out.completions, m.Completed)
		cur[s] = nil
		if release {
			e.Release(h)
		}
	}
	var launch func(s int)
	launch = func(s int) {
		if rep[s] == reps {
			return
		}
		h, err := e.Launch(specs[s][rep[s]], opts[s])
		if err != nil {
			t.Fatal(err)
		}
		rep[s]++
		cur[s] = h
		out.launches++
		seen[h] = true
		// The first callback reads the metrics and releases; the second,
		// which must still run, launches the next rep.
		e.OnComplete(h, func(vtime.Time) { finish(s, h, h.Metrics()) })
		e.OnComplete(h, func(vtime.Time) { launch(s) })
	}
	for s := range opts {
		launch(s)
	}
	for _, r := range resizes {
		clk.At(r.at, func(vtime.Time) {
			if h := cur[0]; h != nil {
				if err := e.Resize(h, r.lo, r.hi); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	clk.At(evictAt, func(vtime.Time) {
		h := cur[1]
		if h == nil {
			t.Fatal("stream 1 had no kernel running at the eviction")
		}
		m, err := e.Evict(h)
		if err != nil {
			t.Fatal(err)
		}
		finish(1, h, m)
		launch(1)
	})
	for n := 0; clk.Step(); n++ {
		if n >= 10_000_000 {
			t.Fatal("simulation did not converge")
		}
		if afterEvent != nil {
			afterEvent(e)
		}
	}
	if want := len(opts) * reps; out.launches != want || len(out.metrics) != want {
		t.Fatalf("%d launches, %d finished; want %d each", out.launches, len(out.metrics), want)
	}
	out.fired = clk.Fired()
	out.handles = len(seen)
	return out
}

// TestReleaseIsInvisible pins Engine.Release's contract: a run that hands
// every finished handle back — from completion callbacks, after an
// eviction, with resizes in between — is bit-identical to one that never
// does, in every kernel's metrics, the completion times and the number of
// events fired, and it does reuse handles.
func TestReleaseIsInvisible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		kept := releaseScenario(t, seed, false, nil)
		released := releaseScenario(t, seed, true, nil)
		if !reflect.DeepEqual(kept.metrics, released.metrics) {
			t.Errorf("seed %d: metrics differ\nkept:     %+v\nreleased: %+v", seed, kept.metrics, released.metrics)
		}
		if !reflect.DeepEqual(kept.completions, released.completions) {
			t.Errorf("seed %d: completion times differ: %v vs %v", seed, kept.completions, released.completions)
		}
		if kept.fired != released.fired {
			t.Errorf("seed %d: %d events fired kept, %d released", seed, kept.fired, released.fired)
		}
		if kept.handles != kept.launches {
			t.Errorf("seed %d: %d handles for %d launches without release", seed, kept.handles, kept.launches)
		}
		if released.handles >= released.launches {
			t.Errorf("seed %d: %d handles for %d launches with release: none reused", seed, released.handles, released.launches)
		}
	}
}

// TestReleaseMisuse: a running handle, or one released already, cannot be
// released; a handle released in its first completion callback still runs
// the later ones, and is reused only after they have all returned.
func TestReleaseMisuse(t *testing.T) {
	e, clk := newEngine()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	h, err := e.Launch(computeKernel("a", 600), LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("Release of a running handle", func() { e.Release(h) })

	var later bool
	var next *Handle
	e.OnComplete(h, func(vtime.Time) { e.Release(h) })
	e.OnComplete(h, func(vtime.Time) {
		later = true
		if next, err = e.Launch(computeKernel("b", 600), LaunchOpts{Mode: HardwareSched}); err != nil {
			t.Error(err)
		}
	})
	run(t, clk)
	if !later {
		t.Fatal("the callback after the releasing one did not run")
	}
	if next == h {
		t.Fatal("a launch inside the completion callbacks reused the handle they were firing for")
	}
	mustPanic("a second Release", func() { e.Release(h) })
	e.Release(next)
	if again, err := e.Launch(computeKernel("c", 600), LaunchOpts{Mode: HardwareSched}); err != nil || again != next {
		t.Fatalf("launch after the callbacks returned %p (%v), want the released %p", again, err, next)
	}
}

// freshWaves is Handle.waves computed from the device, the spec and the
// launch options alone.
func freshWaves(dev *device.Device, h *Handle, smAlloc float64) [3]float64 {
	capacity := math.Floor(smAlloc * float64(dev.ResidentBlocks(h.spec.Shape())))
	if capacity < 1 {
		capacity = 1
	}
	unit := 1.0
	if h.opts.Mode == SlateSched {
		unit = float64(h.opts.TaskSize)
	}
	units := math.Ceil(float64(h.spec.NumBlocks()) / unit)
	fullWaves := math.Floor(units / capacity)
	lastWave := units - fullWaves*capacity
	if lastWave == 0 {
		lastWave = capacity
		fullWaves--
	}
	return [3]float64{capacity, lastWave, fullWaves * capacity * unit}
}

// TestWaveGeometryCacheIsInvisible: each handle keeps its wave geometry at
// the last allocation asked about. After every event of the release
// scenario — resizes, an eviction, reused handles — every running handle's
// geometry at its allocation, at other allocations and at its allocation
// again equals a fresh computation bit for bit, and a run that asks all
// those questions equals one that asks none.
func TestWaveGeometryCacheIsInvisible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		checks := 0
		check := func(e *Engine) {
			for _, h := range e.running {
				span := float64(h.opts.SMHigh - h.opts.SMLow + 1)
				for _, a := range []float64{h.smAlloc, h.smAlloc, 0, 1, 2.5, span, float64(e.Dev.NumSMs), h.smAlloc} {
					c, l, b := h.waves(a)
					got, want := [3]float64{c, l, b}, freshWaves(e.Dev, h, a)
					for f := range got {
						if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
							t.Fatalf("seed %d: %s on %v SMs: cached geometry %v, fresh %v", seed, h.spec.Name, a, got, want)
						}
					}
					checks++
				}
			}
		}
		asked := releaseScenario(t, seed, true, check)
		plain := releaseScenario(t, seed, true, nil)
		if !reflect.DeepEqual(asked, plain) {
			t.Errorf("seed %d: asking for wave geometry changed the run\nasked: %+v\nplain: %+v", seed, asked, plain)
		}
		if checks == 0 {
			t.Fatalf("seed %d: no running handle was checked", seed)
		}
	}

	// A handle the engine has never asked — a hardware kernel behind a Slate
	// partition that holds every SM — answers from its own geometry too.
	e, _ := newEngine()
	if _, err := e.Launch(computeKernel("slate", 600), LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: e.Dev.NumSMs - 1}); err != nil {
		t.Fatal(err)
	}
	h, err := e.Launch(computeKernel("hw", 600), LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	if c, l, b := h.waves(0); [3]float64{c, l, b} != freshWaves(e.Dev, h, 0) {
		t.Fatalf("unasked handle on 0 SMs: cached geometry %v, fresh %v", [3]float64{c, l, b}, freshWaves(e.Dev, h, 0))
	}
}
