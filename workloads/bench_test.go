package workloads

import (
	"testing"

	"slate/internal/cache"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/traces"
)

// fig7Traces assembles the ten traces a cold Fig. 7 sweep builds its model
// from: every Apps() kernel in hardware order and in Slate order at task
// size 10, with the assembly settings engine.TraceModel uses at seed 1.
func fig7Traces(dev *device.Device) [][]uint64 {
	m := engine.NewTraceModel(dev)
	var out [][]uint64
	for _, app := range Apps() {
		spec := app.Kernel
		workers := max(dev.MaxWorkers(spec.Shape(), dev.NumSMs), 1)
		workers = min(workers, spec.Pattern.NumBlocks())
		for _, order := range []traces.Order{traces.HardwareOrder, traces.SlateOrder} {
			acfg := traces.AssembleConfig{
				Order: order, Workers: workers, TaskSize: 1,
				Chunk: 8, Seed: m.Seed, MaxAccesses: m.MaxAccesses,
			}
			if order == traces.SlateOrder {
				acfg.TaskSize = engine.DefaultTaskSize
			}
			out = append(out, traces.Assemble(spec.Pattern, acfg))
		}
	}
	return out
}

// BenchmarkMRCFig7Traces times the one-pass miss-ratio curve over the traces
// a cold Fig. 7 sweep actually builds, not a synthetic one: one op is all
// ten, and ns/access is the per-access cost of the reuse-distance pass.
func BenchmarkMRCFig7Traces(b *testing.B) {
	dev := device.TitanXp()
	trs := fig7Traces(dev)
	sizes, _ := engine.NewTraceModel(dev).MissRatioCurve(Apps()[0].Kernel, engine.HardwareSched, 1)
	accesses := 0
	for _, tr := range trs {
		accesses += len(tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			cache.ReuseDistanceMRC(dev.L2, tr, sizes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(accesses), "ns/access")
}
