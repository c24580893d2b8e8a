package traces

import (
	"fmt"
	"testing"
)

// benchPatterns are model-build-scale instances of every pattern shape the
// workloads use, sized so an uncapped assembly is ~1M accesses — the
// TraceModel default.
func benchPatterns() map[string]BlockPattern {
	return map[string]BlockPattern{
		"streaming": Streaming{Blocks: 2048, BytesPerBlock: 32 << 10, LineBytes: 64},
		"rowsweep": RowSweep{
			Blocks: 2048, PivotBytes: 4096, SliceBytes: 28 << 10,
			SliceOverlap: 8 << 10, LineBytes: 64, RowBase: 1 << 22,
		},
		"tiled":  Tiled{GridX: 32, GridY: 32, PanelBytes: 32 << 10, LineBytes: 64, BBase: 1 << 30},
		"random": Random{Blocks: 2048, BytesPerBlock: 28 << 10, TableBytes: 1 << 20, TableReads: 64, LineBytes: 64, TableBase: 1 << 30},
		// The RG shape: 100 accesses per block, so a model-scale expansion
		// re-seeds the table-read source 10 000 times.
		"random-rg": Random{Blocks: 16384, BytesPerBlock: 92 * 64, TableBytes: 64 << 10, TableReads: 8, LineBytes: 64, Seed: 11, TableBase: 1 << 34},
	}
}

// BenchmarkAssemble measures trace assembly (the other half of a model
// build beside the MRC) with allocation counts: the preallocated queue,
// stream, and output buffers should keep allocs flat in trace length. The
// "+stats" cases run the fused entry a model build calls and, like the
// build, hand the trace back when done, so their B/op is what a build
// allocates with both buffers recycled; what they cost over plain assembly
// in time is the run-statistics pass alone.
func BenchmarkAssemble(b *testing.B) {
	for _, order := range []struct {
		name string
		cfg  AssembleConfig
	}{
		{"hardware", AssembleConfig{Order: HardwareOrder, Workers: 480, Chunk: 8, Seed: 1, MaxAccesses: 1_000_000}},
		{"slate", AssembleConfig{Order: SlateOrder, Workers: 480, TaskSize: 10, Chunk: 8, Seed: 1, MaxAccesses: 1_000_000}},
	} {
		for name, p := range benchPatterns() {
			b.Run(fmt.Sprintf("%s/%s", order.name, name), func(b *testing.B) {
				b.ReportAllocs()
				var sink int
				for i := 0; i < b.N; i++ {
					sink = len(Assemble(p, order.cfg))
				}
				_ = sink
			})
			b.Run(fmt.Sprintf("%s/%s+stats", order.name, name), func(b *testing.B) {
				b.ReportAllocs()
				var sink int
				for i := 0; i < b.N; i++ {
					trace, rs := AssembleWithRunStats(p, order.cfg)
					sink = len(trace) + rs.Runs
					Release(trace)
				}
				_ = sink
			})
		}
	}
}
