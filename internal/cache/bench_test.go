package cache

import "testing"

// benchTrace is a model-scale trace with mixed reuse: interleaved panel
// streams over a shared region plus private slices, resembling what
// engine.TraceModel feeds the MRC on every cold build.
func benchTrace(n int) []uint64 {
	trace := make([]uint64, 0, n)
	const pivotLines, sliceLines = 512, 1536
	for b := 0; len(trace) < n; b++ {
		for l := 0; l < pivotLines; l++ {
			trace = append(trace, uint64((b%16)*pivotLines+l)*64)
		}
		base := uint64(1<<30) + uint64(b)*sliceLines*64
		for l := 0; l < sliceLines; l++ {
			trace = append(trace, base+uint64(l)*64)
		}
	}
	return trace[:n]
}

// benchSizes mirrors the engine's mrcSizes ladder.
var benchSizes = []int{
	64 << 10, 128 << 10, 256 << 10, 512 << 10,
	1 << 20, 3 << 20 / 2, 3 << 20, 6 << 20,
}

// BenchmarkMRCOnePass measures the single-pass reuse-distance engine
// answering all eight capacity points in one traversal.
func BenchmarkMRCOnePass(b *testing.B) {
	trace := benchTrace(1_000_000)
	cfg := TitanXpL2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReuseDistanceMRC(cfg, trace, benchSizes)
	}
}

// BenchmarkMRCEightSims measures the legacy path this engine replaced: one
// full set-associative simulation per capacity point.
func BenchmarkMRCEightSims(b *testing.B) {
	trace := benchTrace(1_000_000)
	cfg := TitanXpL2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missRatioCurve(cfg, trace, benchSizes)
	}
}
