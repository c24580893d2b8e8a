package engine

import (
	"sync"
	"testing"
	"time"

	"slate/internal/device"
)

// TestTraceModelConcurrentSharedUse hammers one model from many goroutines
// over a mix of duplicate and distinct keys; run with -race this verifies
// the single-flight entry construction, and the collected values must all
// match a serially computed reference.
func TestTraceModelConcurrentSharedUse(t *testing.T) {
	ref := NewTraceModel(device.TitanXp())
	spec := traceSpec("conc")
	type q struct {
		mode Mode
		ts   int
		l2   float64
	}
	queries := []q{
		{HardwareSched, 1, 1 << 20},
		{SlateSched, 1, 1 << 20},
		{SlateSched, 10, 1 << 20},
		{SlateSched, 10, 3 << 20},
		{SlateSched, 50, 512 << 10},
	}
	want := make([]float64, len(queries))
	for i, c := range queries {
		want[i] = ref.HitRate(spec, c.mode, c.ts, c.l2)
	}

	m := NewTraceModel(device.TitanXp())
	const goroutines = 8
	got := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]float64, len(queries))
			for i, c := range queries {
				// Renamed instance specs must share entries by content.
				s := traceSpec("conc@inst")
				got[g][i] = m.HitRate(s, c.mode, c.ts, c.l2)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range queries {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d query %d: got %v, want %v", g, i, got[g][i], want[i])
			}
		}
	}
}

// TestTraceModelWarmReadsDuringBuild: the warm read path (shared lock, atomic
// built flag, no channel receive) against the write path. Eight goroutines
// re-read one warm key for as long as a second key's cold build — which takes
// the write lock to publish its in-flight entry and again never after — is
// running; run with -race. Every read returns the warm entry itself.
func TestTraceModelWarmReadsDuringBuild(t *testing.T) {
	m := NewTraceModel(device.TitanXp())
	m.MaxAccesses = 200_000
	warm, cold := traceSpec("warm"), traceSpec("cold")
	cold.L2BytesPerBlock++ // a different fingerprint, hence a second key
	want := m.Locality(warm, SlateSched, 10)

	built := make(chan struct{})
	go func() {
		defer close(built)
		m.Locality(cold, SlateSched, 10)
	}()
	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for building := true; building; {
				select {
				case <-built:
					building = false
				default:
				}
				if got := m.Locality(warm, SlateSched, 10); got != want {
					t.Errorf("warm read returned entry %p, want %p", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-built
	if got := m.Locality(cold, SlateSched, 10); got == want || len(got.MissRatio) != len(mrcSizes) {
		t.Fatalf("second key's entry %+v is not its own complete curve", got)
	}
}

// TestTraceModelBuildWorkersBitIdentical verifies BuildWorkers never changes
// a result: the one-pass engine ignores it, and the oracle's fan writes
// disjoint slots.
func TestTraceModelBuildWorkersBitIdentical(t *testing.T) {
	seq := NewTraceModel(device.TitanXp())
	par := NewTraceModel(device.TitanXp())
	par.BuildWorkers = 4
	spec := traceSpec("bw")
	for _, l2 := range []float64{64 << 10, 700 << 10, 3 << 20, 6 << 20} {
		a := seq.HitRate(spec, SlateSched, 10, l2)
		b := par.HitRate(spec, SlateSched, 10, l2)
		if a != b {
			t.Fatalf("l2=%v: sequential %v != fanned-out %v", l2, a, b)
		}
	}
	if a, b := seq.MeanRunBytes(spec, SlateSched, 10), par.MeanRunBytes(spec, SlateSched, 10); a != b {
		t.Fatalf("run bytes differ: %v vs %v", a, b)
	}
}

// TestTraceModelPanickedBuildDoesNotPoisonKey: a build that panics (here the
// MRC rejecting a non-power-of-two line size on a custom device) used to
// leave its single-flight entry in the map with ready never closed, so the
// next request for the key blocked forever. Every request — one that arrives
// after the failed build and ones that waited on it — must get the panic
// from a build of its own.
func TestTraceModelPanickedBuildDoesNotPoisonKey(t *testing.T) {
	dev := device.TitanXp()
	dev.L2.LineBytes = 48
	m := NewTraceModel(dev)
	m.MaxAccesses = 10_000
	spec := traceSpec("poison")

	const requests = 4
	panicked := make(chan bool, requests)
	request := func() {
		defer func() { panicked <- recover() != nil }()
		m.HitRate(spec, SlateSched, 10, 1<<20)
	}
	request() // serial: fails, and must forget its entry
	<-panicked
	for i := 1; i < requests; i++ {
		go request() // concurrent: single-flight behind one another's failures
	}
	for i := 1; i < requests; i++ {
		select {
		case p := <-panicked:
			if !p {
				t.Fatal("request after a failed build returned instead of panicking")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request after a panicking build hung on the poisoned entry")
		}
	}
}
