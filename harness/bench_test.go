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

// Allocation budget of one warm Fig. 7 sweep at a 1 s loop, serial. The
// simulated launch loop reuses engine handles, scheduler entries and the
// backends' launch records with their callbacks bound once, keeps its
// queues' backing arrays, and a cell that reads only its results keeps a
// one-slot decision ring; what a sweep still allocates is per cell (engines,
// rate-memo entries, the driver's per-application state) and the render.
// Measured at 0.30 MB and ~5.0k allocations (8.4 MB and 136k before those
// changes, 38.5 MB and 316k before engine handles were reused); the budget
// is that plus about half again.
const (
	warmFig7BudgetBytes  = 512 << 10
	warmFig7BudgetAllocs = 7_500
)

// TestWarmFig7AllocationBudget pins what one warm sweep allocates, by
// runtime.MemStats around the sweep, the way
// TestSteadyStateRecomputeDoesNotAllocate pins the engine's hot path.
func TestWarmFig7AllocationBudget(t *testing.T) {
	if _, err := testHarness.Fig7(); err != nil { // warms the model, profiles and solo times
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := testHarness.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	benchSink += len(res.Render())
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one warm sweep: %.2f MB in %d allocations", float64(bytes)/(1<<20), allocs)
	if bytes > warmFig7BudgetBytes || allocs > warmFig7BudgetAllocs {
		t.Errorf("one warm sweep allocated %d bytes in %d allocations; budget %d bytes, %d allocations",
			bytes, allocs, warmFig7BudgetBytes, warmFig7BudgetAllocs)
	}
}
