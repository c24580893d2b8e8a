package engine

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/traces"
)

// pooledBuildSpecs orders long, short and long traces of every pattern shape
// so that recycled buffers are larger than, smaller than and equal to what the
// next build needs, and a long reuse-distance histogram is followed by a short
// one.
func pooledBuildSpecs() []*kern.Spec {
	short := func(name string, blocks int) *kern.Spec {
		return &kern.Spec{
			Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(64),
			FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 8 << 10,
			ComputeEff: 0.1,
			Pattern: traces.RowSweep{
				Blocks: blocks, PivotBytes: 2048, SliceBytes: 6 << 10, LineBytes: 64, RowBase: 1 << 22,
			},
		}
	}
	long := paritySpecs()
	return []*kern.Spec{long[0], short("short-a", 96), long[2], long[3], short("short-b", 31), long[4], long[1]}
}

// TestPooledBuildsMatchFreshBuffers: a build draws its two trace buffers and
// its MRC scratch from pools and hands them back when it is done. Build A,
// then B on A's buffers, then everything else concurrently on one model, and
// compare every curve point and run length bit for bit with a model built
// serially with the pools drained before each build. A buffer read after its
// release, a stale tail of a longer trace, or a histogram bin left behind
// shows up here; run under -race in CI.
func TestPooledBuildsMatchFreshBuffers(t *testing.T) {
	type key struct {
		spec *kern.Spec
		mode Mode
	}
	var keys []key
	for _, spec := range pooledBuildSpecs() {
		for _, mode := range []Mode{HardwareSched, SlateSched} {
			keys = append(keys, key{spec, mode})
		}
	}
	newModel := func() *TraceModel {
		m := NewTraceModel(device.TitanXp())
		m.MaxAccesses = 200_000
		return m
	}

	fresh := newModel()
	want := make([]*Locality, len(keys))
	for i, k := range keys {
		// Two collections empty every sync.Pool: this build allocates all of
		// its working memory.
		runtime.GC()
		runtime.GC()
		want[i] = fresh.Locality(k.spec, k.mode, DefaultTaskSize)
	}

	pooled := newModel()
	got := make([]*Locality, len(keys))
	got[0] = pooled.Locality(keys[0].spec, keys[0].mode, DefaultTaskSize)
	got[1] = pooled.Locality(keys[1].spec, keys[1].mode, DefaultTaskSize)
	var wg sync.WaitGroup
	for i := 2; i < len(keys); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = pooled.Locality(keys[i].spec, keys[i].mode, DefaultTaskSize)
		}(i)
	}
	wg.Wait()

	for i, k := range keys {
		if g, w := math.Float64bits(got[i].RunBytes), math.Float64bits(want[i].RunBytes); g != w {
			t.Errorf("%s %v: RunBytes %v, fresh buffers give %v", k.spec.Name, k.mode, got[i].RunBytes, want[i].RunBytes)
		}
		for j := range want[i].MissRatio {
			if g, w := math.Float64bits(got[i].MissRatio[j]), math.Float64bits(want[i].MissRatio[j]); g != w {
				t.Errorf("%s %v @ %d KiB: miss ratio %v, fresh buffers give %v",
					k.spec.Name, k.mode, mrcSizes[j]>>10, got[i].MissRatio[j], want[i].MissRatio[j])
			}
		}
	}
}
