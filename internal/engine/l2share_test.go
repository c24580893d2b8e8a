package engine

import (
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// footprintModel is a PerfModel whose hit rate depends on the granted L2
// capacity: hit = min(maxHit, l2Bytes/footprint) — a linear miss-ratio
// curve that makes the engine's L2-partition fixpoint observable.
type footprintModel struct {
	footprint map[string]float64
	maxHit    float64
}

func (m *footprintModel) Locality(spec *kern.Spec, _ Mode, _ int) *Locality {
	loc := &Locality{Capacities: []float64{0}, MissRatio: []float64{1}, RunBytes: 1 << 20}
	if fp := m.footprint[spec.Name]; fp > 0 {
		loc.Capacities = append(loc.Capacities, m.maxHit*fp)
		loc.MissRatio = append(loc.MissRatio, 1-m.maxHit)
	}
	return loc
}

func cachedKernel(name string, bytesPB float64) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(2400), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e5, InstrPerBlock: 1e5, L2BytesPerBlock: bytesPB,
		ComputeEff: 0.8, MemMLP: 8,
	}
}

// Solo, a kernel owns the whole L2; corunning, it gets only its
// demand-proportional share, so its hit rate drops and its DRAM traffic
// rises — the cache-interference half of co-run contention.
func TestL2PartitionRaisesDRAMTrafficUnderCorun(t *testing.T) {
	dev := device.TitanXp()
	model := &footprintModel{
		footprint: map[string]float64{
			"a": float64(dev.L2.SizeBytes) * 1.2, // almost fits solo
			"b": float64(dev.L2.SizeBytes) * 1.2,
		},
		maxHit: 0.8,
	}
	solo := func() Metrics {
		clk := vtime.NewClock()
		e := New(dev, clk, model)
		h, err := e.Launch(cachedKernel("a", 1<<20), LaunchOpts{Mode: SlateSched, TaskSize: 10, SMLow: 0, SMHigh: 29})
		if err != nil {
			t.Fatal(err)
		}
		clk.Run(2_000_000)
		return h.Metrics()
	}()

	clk := vtime.NewClock()
	e := New(dev, clk, model)
	ha, err := e.Launch(cachedKernel("a", 1<<20), LaunchOpts{Mode: SlateSched, TaskSize: 10, SMLow: 0, SMHigh: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Launch(cachedKernel("b", 1<<20), LaunchOpts{Mode: SlateSched, TaskSize: 10, SMLow: 15, SMHigh: 29}); err != nil {
		t.Fatal(err)
	}
	clk.Run(2_000_000)
	corun := ha.Metrics()

	soloMiss := solo.DRAMBytes / solo.L2Bytes
	corunMiss := corun.DRAMBytes / corun.L2Bytes
	if corunMiss <= soloMiss*1.2 {
		t.Fatalf("corun miss ratio %.3f not clearly above solo %.3f; L2 partitioning inert", corunMiss, soloMiss)
	}
}

// The fixpoint splits the L2 by access demand: a kernel with double the
// per-block traffic ends up with a larger share (a lower miss penalty) than
// its light partner.
func TestL2SharesFollowDemand(t *testing.T) {
	dev := device.TitanXp()
	model := &footprintModel{
		footprint: map[string]float64{
			"heavy": float64(dev.L2.SizeBytes) * 2,
			"light": float64(dev.L2.SizeBytes) * 2,
		},
		maxHit: 0.9,
	}
	clk := vtime.NewClock()
	e := New(dev, clk, model)
	hh, err := e.Launch(cachedKernel("heavy", 2<<20), LaunchOpts{Mode: SlateSched, TaskSize: 10, SMLow: 0, SMHigh: 14})
	if err != nil {
		t.Fatal(err)
	}
	light := cachedKernel("light", 16<<10)
	light.FLOPsPerBlock = 1e8 // compute-bound: its access demand is a trickle
	hl, err := e.Launch(light, LaunchOpts{Mode: SlateSched, TaskSize: 10, SMLow: 15, SMHigh: 29})
	if err != nil {
		t.Fatal(err)
	}
	// Sample the converged hit rates shortly after launch.
	var heavyHit, lightHit float64
	clk.After(1000, func(vtime.Time) {
		heavyHit = hh.hitRate
		lightHit = hl.hitRate
	})
	clk.Run(2_000_000)
	if !(heavyHit > lightHit) {
		t.Fatalf("heavy demand hit %.3f not above light %.3f; shares not demand-weighted", heavyHit, lightHit)
	}
}
