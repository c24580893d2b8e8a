package engine

import (
	"math"
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/traces"
)

// mrcDeviationBound is the one-pass MRC's documented per-point deviation
// from the set-associative oracle; the cache package's property tests
// assert the same bound.
const mrcDeviationBound = 0.04

// paritySpecs covers every trace-pattern shape in internal/traces at model
// scale: streaming (with and without a strided write stream), shared-reuse
// row sweeps, tiled panel reuse, and scattered random reads.
func paritySpecs() []*kern.Spec {
	mk := func(name string, p traces.BlockPattern) *kern.Spec {
		return &kern.Spec{
			Name: name, Grid: kern.D1(p.NumBlocks()), BlockDim: kern.D1(64),
			FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 32 << 10,
			ComputeEff: 0.1, Pattern: p,
		}
	}
	return []*kern.Spec{
		mk("streaming", traces.Streaming{Blocks: 2048, BytesPerBlock: 32 << 10, LineBytes: 64}),
		mk("strided", traces.Streaming{
			Blocks: 2048, BytesPerBlock: 16 << 10, LineBytes: 64,
			WriteStride: 8 << 10, WriteBytes: 16 << 10, WriteBase: 1 << 30,
		}),
		mk("rowsweep", traces.RowSweep{
			Blocks: 2048, PivotBytes: 4096, SliceBytes: 28 << 10,
			SliceOverlap: 8 << 10, LineBytes: 64, RowBase: 1 << 22,
		}),
		mk("tiled", traces.Tiled{GridX: 32, GridY: 32, PanelBytes: 32 << 10, LineBytes: 64, BBase: 1 << 30}),
		mk("random", traces.Random{
			Blocks: 2048, BytesPerBlock: 24 << 10, TableBytes: 2 << 20,
			TableReads: 128, LineBytes: 64, TableBase: 1 << 30,
		}),
	}
}

// Property: at every mrcSizes capacity, under both execution orders, the
// one-pass reuse-distance curve deviates from the legacy set-associative
// oracle by at most mrcDeviationBound. The oracle runs with
// BuildWorkers > 1 so `go test -race` exercises its capacity-point fan.
func TestTraceModelOnePassMatchesOracle(t *testing.T) {
	for _, spec := range paritySpecs() {
		onepass := NewTraceModel(device.TitanXp())
		oracle := NewTraceModel(device.TitanXp())
		oracle.LegacyMRC = true
		oracle.BuildWorkers = 4
		for _, mode := range []Mode{HardwareSched, SlateSched} {
			sizes, got := onepass.MissRatioCurve(spec, mode, 10)
			_, want := oracle.MissRatioCurve(spec, mode, 10)
			for i := range sizes {
				if d := math.Abs(got[i] - want[i]); d > mrcDeviationBound {
					t.Errorf("%s %v @ %d KiB: one-pass %.4f vs oracle %.4f (Δ %.4f > %.3f)",
						spec.Name, mode, sizes[i]>>10, got[i], want[i], d, mrcDeviationBound)
				}
			}
		}
	}
}
