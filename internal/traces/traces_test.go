package traces

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"slate/internal/cache"
)

func l2() cache.Config { return cache.Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 16} }

func TestStreamingCoversDisjointRanges(t *testing.T) {
	p := Streaming{Blocks: 8, BytesPerBlock: 512, LineBytes: 64}
	seen := map[uint64]int{}
	for b := 0; b < p.Blocks; b++ {
		for _, a := range p.AppendBlock(nil, b) {
			seen[a]++
		}
	}
	if len(seen) != 8*512/64 {
		t.Fatalf("distinct lines = %d, want %d", len(seen), 8*512/64)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("line %#x touched %d times across blocks; streaming should be private", a, n)
		}
	}
}

func TestRowSweepSharesPivot(t *testing.T) {
	p := RowSweep{Blocks: 4, PivotBytes: 256, SliceBytes: 256, LineBytes: 64, RowBase: 1 << 20}
	counts := map[uint64]int{}
	for b := 0; b < p.Blocks; b++ {
		for _, a := range p.AppendBlock(nil, b) {
			counts[a]++
		}
	}
	pivotLines := 0
	for a, n := range counts {
		if a < 1<<20 {
			pivotLines++
			if n != p.Blocks {
				t.Fatalf("pivot line %#x touched %d times, want %d", a, n, p.Blocks)
			}
		}
	}
	if pivotLines != 256/64 {
		t.Fatalf("pivot lines = %d, want 4", pivotLines)
	}
}

func TestTiledPanelReuse(t *testing.T) {
	p := Tiled{GridX: 4, GridY: 4, PanelBytes: 256, LineBytes: 64, BBase: 1 << 30}
	// Blocks 0..3 (row 0) must share the same A panel.
	aLines := func(b int) []uint64 {
		var out []uint64
		for _, a := range p.AppendBlock(nil, b) {
			if a < 1<<30 {
				out = append(out, a)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	ref := aLines(0)
	for b := 1; b < 4; b++ {
		got := aLines(b)
		if len(got) != len(ref) {
			t.Fatalf("block %d A-panel size mismatch", b)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("block %d reads different A panel", b)
			}
		}
	}
	// Block 4 (row 1) must read a different A panel.
	if aLines(4)[0] == ref[0] {
		t.Fatal("row 1 shares row 0's A panel")
	}
}

func TestRandomDeterministicPerBlock(t *testing.T) {
	p := Random{Blocks: 4, BytesPerBlock: 128, TableBytes: 4096, TableReads: 8, LineBytes: 64, Seed: 9}
	a := p.AppendBlock(nil, 2)
	b := p.AppendBlock(nil, 2)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("block trace not deterministic")
		}
	}
}

func TestAssemblePreservesMultiset(t *testing.T) {
	p := RowSweep{Blocks: 32, PivotBytes: 128, SliceBytes: 256, LineBytes: 64, RowBase: 1 << 20}
	want := map[uint64]int{}
	for b := 0; b < p.Blocks; b++ {
		for _, a := range p.AppendBlock(nil, b) {
			want[a]++
		}
	}
	for _, ord := range []Order{HardwareOrder, SlateOrder} {
		got := map[uint64]int{}
		tr := Assemble(p, AssembleConfig{Order: ord, Workers: 4, TaskSize: 2, Chunk: 4, Seed: 1})
		for _, a := range tr {
			got[a]++
		}
		if len(got) != len(want) {
			t.Fatalf("order %v: distinct lines %d, want %d", ord, len(got), len(want))
		}
		for a, n := range want {
			if got[a] != n {
				t.Fatalf("order %v: line %#x count %d, want %d", ord, a, got[a], n)
			}
		}
	}
}

func TestAssembleMaxAccessesCaps(t *testing.T) {
	// The cap samples whole blocks (composition must stay representative),
	// so the result is the largest block-multiple under the cap: 12 blocks
	// × 8 accesses = 96.
	p := Streaming{Blocks: 64, BytesPerBlock: 512, LineBytes: 64}
	tr := Assemble(p, AssembleConfig{Order: SlateOrder, Workers: 4, MaxAccesses: 100, Seed: 3})
	if len(tr) != 96 {
		t.Fatalf("capped trace length = %d, want 96 (12 whole blocks)", len(tr))
	}
	// A cap below one block still emits one whole block.
	tr = Assemble(p, AssembleConfig{Order: SlateOrder, Workers: 4, MaxAccesses: 3, Seed: 3})
	if len(tr) != 8 {
		t.Fatalf("sub-block cap emitted %d accesses, want one whole block (8)", len(tr))
	}
}

func TestAssembleDeterministic(t *testing.T) {
	p := Tiled{GridX: 8, GridY: 8, PanelBytes: 512, LineBytes: 64, BBase: 1 << 30}
	cfg := AssembleConfig{Order: HardwareOrder, Workers: 8, Chunk: 4, Seed: 42}
	a := Assemble(p, cfg)
	b := Assemble(p, cfg)
	if len(a) != len(b) {
		t.Fatal("length differs across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("assembly not deterministic")
		}
	}
}

// The headline property this package exists for: Slate's in-order execution
// yields a strictly better L2 hit rate than hardware scatter for patterns
// with inter-block locality (RowSweep models GS).
func TestSlateOrderImprovesRowSweepHitRate(t *testing.T) {
	p := RowSweep{
		Blocks: 2048, PivotBytes: 4096, SliceBytes: 2048, SliceOverlap: 1024,
		LineBytes: 64, RowBase: 1 << 22,
	}
	hw := hitRate(p, AssembleConfig{Order: HardwareOrder, Workers: 32, Chunk: 8, Seed: 1}, l2())
	sl := hitRate(p, AssembleConfig{Order: SlateOrder, Workers: 32, TaskSize: 10, Chunk: 8, Seed: 1}, l2())
	if sl <= hw {
		t.Fatalf("Slate order hit rate %.3f not better than hardware %.3f", sl, hw)
	}
	if sl-hw < 0.02 {
		t.Fatalf("locality gain too small to matter: slate %.3f vs hw %.3f", sl, hw)
	}
}

// Slate's in-order tasks produce much longer first-touch sequential runs than
// hardware's jittered strided dealing — the DRAM row-locality mechanism.
func TestSlateOrderLengthensRuns(t *testing.T) {
	p := Streaming{Blocks: 2048, BytesPerBlock: 1024, LineBytes: 64}
	hw := streamRunStats(p, AssembleConfig{Order: HardwareOrder, Workers: 32, Seed: 1})
	sl := streamRunStats(p, AssembleConfig{Order: SlateOrder, Workers: 32, TaskSize: 10, Seed: 1})
	if sl.MeanRunBytes < 4*hw.MeanRunBytes {
		t.Fatalf("slate runs %.0fB not ≫ hardware runs %.0fB", sl.MeanRunBytes, hw.MeanRunBytes)
	}
	// With task size 10 each worker walks ~10KiB sequentially.
	if sl.MeanRunBytes < 8000 {
		t.Fatalf("slate mean run %.0fB, want ≈10KiB", sl.MeanRunBytes)
	}
}

// Repeat accesses to hot shared data (the pivot row) must not break runs.
func TestRunStatsIgnoreHotReuse(t *testing.T) {
	withPivot := RowSweep{Blocks: 256, PivotBytes: 1024, SliceBytes: 1024, LineBytes: 64, RowBase: 1 << 22}
	noPivot := Streaming{Blocks: 256, BytesPerBlock: 1024, LineBytes: 64, Base: 1 << 22}
	a := streamRunStats(withPivot, AssembleConfig{Order: SlateOrder, Workers: 8, TaskSize: 10, Seed: 1})
	b := streamRunStats(noPivot, AssembleConfig{Order: SlateOrder, Workers: 8, TaskSize: 10, Seed: 1})
	// Pivot adds at most a handful of cold lines/runs up front; mean run
	// lengths should be within 25% of each other.
	ratio := a.MeanRunBytes / b.MeanRunBytes
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("pivot reuse perturbs run stats: with=%.0fB without=%.0fB", a.MeanRunBytes, b.MeanRunBytes)
	}
}

func TestBoundedWindowShuffleStaysBounded(t *testing.T) {
	n, window := 1000, 32
	order := boundedWindowShuffle(n, window, 7)
	seen := make([]bool, n)
	totalDisp := 0
	for i, b := range order {
		if b < 0 || b >= n || seen[b] {
			t.Fatalf("not a permutation at %d", i)
		}
		seen[b] = true
		d := i - b
		if d < 0 {
			d = -d
		}
		totalDisp += d
		// Swap chains can displace an element a few windows forward, but
		// never unboundedly.
		if d > 8*window {
			t.Fatalf("element %d displaced by %d ≫ window %d", b, d, window)
		}
	}
	if mean := float64(totalDisp) / float64(n); mean > float64(window) {
		t.Fatalf("mean displacement %.1f exceeds window %d", mean, window)
	}
}

// For pure streaming (no inter-block reuse) ordering should barely matter.
func TestOrderInsensitiveForStreaming(t *testing.T) {
	p := Streaming{Blocks: 4096, BytesPerBlock: 1024, LineBytes: 64}
	hw := hitRate(p, AssembleConfig{Order: HardwareOrder, Workers: 32, Chunk: 8, Seed: 1}, l2())
	sl := hitRate(p, AssembleConfig{Order: SlateOrder, Workers: 32, TaskSize: 10, Chunk: 8, Seed: 1}, l2())
	if diff := sl - hw; diff > 0.05 || diff < -0.05 {
		t.Fatalf("streaming hit rates diverge: slate %.3f vs hw %.3f", sl, hw)
	}
}

// Property: assembled trace length equals min(total accesses, cap) for any
// worker/task configuration.
func TestPropertyAssembleLength(t *testing.T) {
	f := func(workers, taskSize, chunk uint8, seed int64) bool {
		p := Streaming{Blocks: 40, BytesPerBlock: 256, LineBytes: 64}
		cfg := AssembleConfig{
			Order:    SlateOrder,
			Workers:  int(workers%16) + 1,
			TaskSize: int(taskSize%8) + 1,
			Chunk:    int(chunk%16) + 1,
			Seed:     seed,
		}
		tr := Assemble(p, cfg)
		return len(tr) == 40*256/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every pattern's AccessesPerBlock hint must match what AppendBlock
// actually emits, for every block — Assemble's buffer preallocation and
// block sampling both trust it.
func TestAccessesPerBlockHintExact(t *testing.T) {
	patterns := map[string]BlockPattern{
		"streaming": Streaming{Blocks: 8, BytesPerBlock: 1000, LineBytes: 64},
		"streaming+write": Streaming{
			Blocks: 8, BytesPerBlock: 1024, LineBytes: 64,
			WriteStride: 4096, WriteBytes: 500,
		},
		"rowsweep": RowSweep{
			Blocks: 8, PivotBytes: 4096, SliceBytes: 1000,
			SliceOverlap: 128, LineBytes: 64,
		},
		"tiled":  Tiled{GridX: 4, GridY: 2, PanelBytes: 1000, LineBytes: 64},
		"random": Random{Blocks: 8, BytesPerBlock: 1000, TableBytes: 1 << 16, TableReads: 7, LineBytes: 64},
	}
	for name, p := range patterns {
		sp, ok := p.(sizedPattern)
		if !ok {
			t.Fatalf("%s does not implement sizedPattern", name)
		}
		want := sp.AccessesPerBlock()
		for b := 0; b < p.NumBlocks(); b++ {
			if got := len(p.AppendBlock(nil, b)); got != want {
				t.Fatalf("%s block %d emits %d accesses, hint says %d", name, b, got, want)
			}
		}
	}
}

func BenchmarkAssembleRowSweep(b *testing.B) {
	p := RowSweep{Blocks: 2048, PivotBytes: 4096, SliceBytes: 2048, LineBytes: 64, RowBase: 1 << 22}
	cfg := AssembleConfig{Order: SlateOrder, Workers: 32, TaskSize: 10, Chunk: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assemble(p, cfg)
	}
}

// The fused entry is the two separate calls on one expansion: same trace,
// same statistics, for every pattern shape under both orders.
func TestAssembleWithRunStatsMatchesSeparateCalls(t *testing.T) {
	patterns := map[string]BlockPattern{
		"streaming": Streaming{Blocks: 300, BytesPerBlock: 1024, LineBytes: 64, WriteStride: 4096, WriteBytes: 512, WriteBase: 1 << 30},
		"rowsweep":  RowSweep{Blocks: 300, PivotBytes: 1024, SliceBytes: 2048, SliceOverlap: 512, LineBytes: 64, RowBase: 1 << 22},
		"tiled":     Tiled{GridX: 16, GridY: 16, PanelBytes: 1024, LineBytes: 64, BBase: 1 << 30},
		"random":    Random{Blocks: 300, BytesPerBlock: 1024, TableBytes: 4096, TableReads: 8, LineBytes: 64, Seed: 11, TableBase: 1 << 34},
	}
	for name, p := range patterns {
		for _, cfg := range []AssembleConfig{
			{Order: HardwareOrder, Workers: 7, Chunk: 8, Seed: 3, MaxAccesses: 4000},
			{Order: SlateOrder, Workers: 7, TaskSize: 10, Chunk: 8, Seed: 3},
		} {
			trace, stats := AssembleWithRunStats(p, cfg)
			want := Assemble(p, cfg)
			if len(trace) != len(want) {
				t.Fatalf("%s %v: fused trace has %d accesses, Assemble %d", name, cfg.Order, len(trace), len(want))
			}
			for i := range want {
				if trace[i] != want[i] {
					t.Fatalf("%s %v: fused trace differs from Assemble at %d", name, cfg.Order, i)
				}
			}
			if ref := mapRunStats(p, cfg); stats != ref || streamRunStats(p, cfg) != ref {
				t.Fatalf("%s %v: fused stats %+v, streamRunStats %+v, map reference %+v",
					name, cfg.Order, stats, streamRunStats(p, cfg), ref)
			}
		}
	}
}

// One seen-set reused across calls — larger windows, then smaller ones
// that inherit their stale slots — and across the wrap of its epoch counter
// must give every call the statistics of a fresh set.
func TestRunStatsReusedSeenSetMatchesReference(t *testing.T) {
	patterns := []BlockPattern{
		Streaming{Blocks: 600, BytesPerBlock: 4096, LineBytes: 64, WriteStride: 4096, WriteBytes: 512, WriteBase: 1 << 30},
		RowSweep{Blocks: 300, PivotBytes: 1024, SliceBytes: 2048, SliceOverlap: 512, LineBytes: 64, RowBase: 1 << 22},
		Tiled{GridX: 16, GridY: 16, PanelBytes: 1024, LineBytes: 64, BBase: 1 << 30},
		Random{Blocks: 300, BytesPerBlock: 1024, TableBytes: 4096, TableReads: 8, LineBytes: 64, Seed: 11, TableBase: 1 << 34},
	}
	set := &seenSet{}
	for _, startEpoch := range []uint32{0, math.MaxUint32 - 5} {
		for _, p := range patterns {
			for _, cfg := range []AssembleConfig{
				{Order: SlateOrder, Workers: 3, TaskSize: 10, Chunk: 8, Seed: 3},
				{Order: HardwareOrder, Workers: 7, Chunk: 8, Seed: 3, MaxAccesses: 4000},
			} {
				if startEpoch != 0 {
					set.epoch = startEpoch // the next call's workers wrap the counter
				}
				streams, buf, _ := expand(p, cfg)
				got := set.runStats(streams)
				Release(buf)
				if want := mapRunStats(p, cfg); got != want {
					t.Fatalf("%T %v from epoch %d: %+v, map reference %+v", p, cfg.Order, startEpoch, got, want)
				}
			}
		}
	}
}

// mapRunStats is the reference for the epoch-stamped first-touch table: one
// Go map per worker stream.
func mapRunStats(p BlockPattern, cfg AssembleConfig) RunStats {
	streams, _, _ := expand(p, cfg)
	var runs, cold int
	for _, s := range streams {
		seen := map[uint64]bool{}
		var prev uint64
		for _, a := range s {
			ln := a / 64
			if seen[ln] {
				continue
			}
			if len(seen) == 0 || (ln != prev && ln != prev+1) {
				runs++
			}
			seen[ln] = true
			cold++
			prev = ln
		}
	}
	if runs == 0 {
		return RunStats{}
	}
	return RunStats{Runs: runs, MeanRunBytes: float64(cold*64) / float64(runs)}
}

// An expansion shares one re-seeded rand source across blocks; every block
// must still draw what a source freshly seeded with Seed+b draws.
func TestRandomExpansionMatchesFreshSourcePerBlock(t *testing.T) {
	p := Random{Blocks: 50, BytesPerBlock: 256, TableBytes: 1 << 16, TableReads: 8, LineBytes: 64, Seed: 11, TableBase: 1 << 34}
	// One worker in Slate order walks blocks 0..n-1, so the trace is the
	// concatenation of the blocks.
	got := Assemble(p, AssembleConfig{Order: SlateOrder, Workers: 1, Seed: 1})
	var want []uint64
	for b := 0; b < p.Blocks; b++ {
		rng := rand.New(rand.NewSource(p.Seed + int64(b)))
		for off := 0; off < p.BytesPerBlock; off += p.LineBytes {
			want = append(want, p.Base+uint64(b*p.BytesPerBlock+off))
		}
		for k := 0; k < p.TableReads; k++ {
			want = append(want, p.TableBase+uint64(rng.Intn(p.TableBytes/p.LineBytes))*uint64(p.LineBytes))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %#x, a fresh source per block gives %#x", i, got[i], want[i])
		}
	}
}
