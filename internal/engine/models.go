package engine

import (
	"sync"

	"slate/internal/cache"
	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/memo"
	"slate/internal/traces"
)

// ModelVersion identifies the generation of the trace-driven locality model.
// It participates in every content-addressed cache key that outlives a
// single model instance (persisted profile tables): bump it whenever trace
// assembly, the cache simulation, or the run statistics change meaning, so
// results cached under an older model are never mistaken for current ones.
//
// Version 2: miss-ratio curves moved from eight independent set-associative
// LRU simulations to the single-pass fully-associative reuse-distance engine
// (cache.ReuseDistanceMRC). Profiles persisted under version 1 are
// auto-invalidated on load and re-measured.
const ModelVersion = 2

// StaticModel is a PerfModel returning fixed parameters, for tests and for
// kernels whose locality is known analytically. Per-kernel overrides are
// keyed by kernel name.
type StaticModel struct {
	// DefaultHit and DefaultRunBytes apply when no override exists.
	DefaultHit      float64
	DefaultRunBytes float64
	// SlateHitBonus is added to the hit rate under SlateSched (in-order
	// execution), clamped to [0,1].
	SlateHitBonus float64
	// SlateRunFactor multiplies run bytes under SlateSched.
	SlateRunFactor float64
	// Hit and RunBytes override per kernel name.
	Hit      map[string]float64
	RunBytes map[string]float64
}

// Locality implements PerfModel: a flat one-point curve (the hit rate does
// not depend on the granted L2 capacity), which suffices for unit tests.
func (m *StaticModel) Locality(spec *kern.Spec, mode Mode, taskSize int) *Locality {
	h := m.DefaultHit
	if v, ok := m.Hit[spec.Name]; ok {
		h = v
	}
	if mode == SlateSched {
		h += m.SlateHitBonus
	}
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	r := m.DefaultRunBytes
	if v, ok := m.RunBytes[spec.Name]; ok {
		r = v
	}
	if r <= 0 {
		r = 64
	}
	if mode == SlateSched && m.SlateRunFactor > 0 {
		r *= m.SlateRunFactor
	}
	return &Locality{Capacities: []float64{0}, MissRatio: []float64{1 - h}, RunBytes: r}
}

// TraceModel derives locality parameters by simulating each kernel's
// synthetic address trace (kern.Spec.Pattern) through the cache simulator:
// a miss-ratio curve sampled at geometric capacities and first-touch run
// statistics make up the kernel's Locality.
//
// Results are memoized per (content fingerprint, mode, taskSize), so any
// number of kernel instances — or renamed copies — with identical geometry
// and work model share one entry. The model is safe for concurrent use:
// distinct entries build in parallel (each build touches only its own trace
// and cache simulator), while concurrent requests for the same key
// single-flight behind the first builder.
type TraceModel struct {
	Dev *device.Device
	// MaxAccesses caps assembled trace length (0 selects a default).
	MaxAccesses int
	// Seed drives trace assembly determinism.
	Seed int64
	// BuildWorkers bounds the goroutines the LegacyMRC oracle path fans its
	// independent capacity-point simulations across (<=1 means sequential).
	// The one-pass reuse-distance engine ignores it: its distance extraction
	// is sequential and integrating the capacity points costs microseconds.
	// The result is bit-identical at any setting.
	BuildWorkers int
	// LegacyMRC selects the pre-version-2 path: one full set-associative
	// LRU simulation per capacity point. It is the validation oracle the
	// property tests compare the one-pass engine against; production builds
	// leave it false.
	LegacyMRC bool

	cache memo.Map[traceKey, *Locality]
}

type traceKey struct {
	fp       string
	mode     Mode
	taskSize int
}

// mrcSizes are the L2 capacities at which miss ratios are sampled;
// mrcCapacities is the same axis as every Locality carries it.
var (
	mrcSizes = []int{
		64 << 10, 128 << 10, 256 << 10, 512 << 10,
		1 << 20, 3 << 20 / 2, 3 << 20, 6 << 20,
	}
	mrcCapacities = func() []float64 {
		out := make([]float64, len(mrcSizes))
		for i, sz := range mrcSizes {
			out[i] = float64(sz)
		}
		return out
	}()
)

// NewTraceModel builds a trace-driven model for the device.
func NewTraceModel(dev *device.Device) *TraceModel {
	return &TraceModel{Dev: dev, MaxAccesses: 1_000_000, Seed: 1}
}

func (m *TraceModel) build(spec *kern.Spec, mode Mode, taskSize int) *Locality {
	p := spec.Pattern
	if p == nil {
		// No pattern: pure streaming with block-sized private chunks.
		bytesPerBlock := int(spec.L2BytesPerBlock)
		if bytesPerBlock < 64 {
			// Effectively no memory traffic; locality irrelevant.
			return &Locality{Capacities: mrcCapacities, MissRatio: ones(len(mrcSizes)), RunBytes: 64}
		}
		blocks := spec.NumBlocks()
		if blocks > 4096 {
			blocks = 4096
		}
		p = traces.Streaming{Blocks: blocks, BytesPerBlock: bytesPerBlock, LineBytes: m.Dev.L2.LineBytes}
	}

	workers := m.Dev.MaxWorkers(spec.Shape(), m.Dev.NumSMs)
	if workers < 1 {
		workers = 1
	}
	if nb := p.NumBlocks(); workers > nb {
		workers = nb
	}
	order := traces.HardwareOrder
	if mode == SlateSched {
		order = traces.SlateOrder
	}
	acfg := traces.AssembleConfig{
		Order:       order,
		Workers:     workers,
		TaskSize:    taskSize,
		Chunk:       8,
		Seed:        m.Seed,
		MaxAccesses: m.maxAccesses(),
	}
	// One dealing and expansion of the pattern yields both the interleaved
	// trace and the per-stream run statistics.
	trace, runs := traces.AssembleWithRunStats(p, acfg)
	loc := &Locality{Capacities: mrcCapacities, RunBytes: runs.MeanRunBytes}
	if m.LegacyMRC {
		loc.MissRatio = m.legacyMRC(trace)
	} else {
		// Single pass over the trace answers every capacity at once.
		loc.MissRatio = cache.ReuseDistanceMRC(m.Dev.L2, trace, mrcSizes)
	}
	// Nothing of the trace survives in loc: the next build may have it.
	traces.Release(trace)
	return loc
}

// legacyMRC is the version-1 model's miss-ratio curve: one full
// set-associative simulation per capacity point, BuildWorkers fanning the
// independent points. Kept as the validation oracle.
func (m *TraceModel) legacyMRC(trace []uint64) []float64 {
	missRate := make([]float64, len(mrcSizes))
	simAt := func(i int) {
		cfg := m.Dev.L2
		cfg.SizeBytes = mrcSizes[i]
		cfg.Sets = 0
		st := cache.SimulateTrace(cfg, trace)
		missRate[i] = st.MissRate()
	}
	if bw := m.BuildWorkers; bw > 1 {
		// Each capacity point simulates the shared read-only trace through
		// its own cache instance and writes a disjoint slot.
		if bw > len(mrcSizes) {
			bw = len(mrcSizes)
		}
		var wg sync.WaitGroup
		for w := 0; w < bw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(mrcSizes); i += bw {
					simAt(i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := range mrcSizes {
			simAt(i)
		}
	}
	return missRate
}

// Locality implements PerfModel. The first request for a (content
// fingerprint, mode, taskSize) builds the entry; every later one returns the
// same shared value.
func (m *TraceModel) Locality(spec *kern.Spec, mode Mode, taskSize int) *Locality {
	if mode == HardwareSched {
		taskSize = 1 // irrelevant under hardware scheduling
	}
	// Content addressing: renamed instances of one kernel (the multi-tenant
	// harness runs "BS@3", "RG#1", …) hash to the same fingerprint and
	// share the memoized entry by construction. The build runs outside the
	// memo's lock, so distinct keys build concurrently — the trace
	// simulations dominate harness wall-clock.
	loc, _ := m.cache.Get(traceKey{spec.Fingerprint(), mode, taskSize}, func() (*Locality, error) {
		return m.build(spec, mode, taskSize), nil
	})
	return loc
}

// Len returns the number of built entries.
func (m *TraceModel) Len() int { return m.cache.Len() }

// MissRatioCurve returns a copy of the memoized capacity points and miss
// ratios for spec. Exposed so the parity suites can compare the one-pass
// engine against the legacy oracle point by point.
func (m *TraceModel) MissRatioCurve(spec *kern.Spec, mode Mode, taskSize int) (sizes []int, missRate []float64) {
	loc := m.Locality(spec, mode, taskSize)
	return append([]int(nil), mrcSizes...), append([]float64(nil), loc.MissRatio...)
}

func (m *TraceModel) maxAccesses() int {
	if m.MaxAccesses > 0 {
		return m.MaxAccesses
	}
	return 1_000_000
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// HitRate returns the kernel's L2 hit rate at the granted capacity.
func (m *TraceModel) HitRate(spec *kern.Spec, mode Mode, taskSize int, l2Bytes float64) float64 {
	return m.Locality(spec, mode, taskSize).HitRate(l2Bytes)
}

// MeanRunBytes returns the mean sequential run length of the kernel's
// first-touch DRAM stream.
func (m *TraceModel) MeanRunBytes(spec *kern.Spec, mode Mode, taskSize int) float64 {
	return m.Locality(spec, mode, taskSize).RunBytes
}

// interpolate performs piecewise-linear interpolation of ys over xs
// (ascending), clamping outside the range.
func interpolate(xs, ys []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			x0, x1 := xs[i-1], xs[i]
			t := (x - x0) / (x1 - x0)
			return ys[i-1] + t*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}
