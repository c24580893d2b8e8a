package harness

import (
	"runtime"
	"testing"
)

var benchSink int

// BenchmarkWarmFig7 is the benchmark's fig7_warm workload as a go test
// benchmark: one kept harness (model, profiler and solo caches hot), and per
// iteration the sweep with everything a user reads from it. What remains is
// the event loop, the engine's rate fixpoint, the schedulers and the driver,
// so
//
//	go test -run '^$' -bench WarmFig7 -benchtime 20x -cpuprofile cpu.out ./harness
//
// is the profile of the warm simulator, and B/op its allocation per sweep.
func BenchmarkWarmFig7(b *testing.B) {
	h := New(Config{LoopSeconds: 1, Seed: 1, Parallel: runtime.NumCPU(), SimWorkers: runtime.NumCPU()})
	if _, err := h.Fig7(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Render()) + len(res.CSV())
	}
}
