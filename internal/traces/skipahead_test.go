package traces

import (
	"math"
	"math/rand"
	"testing"
)

// TestSkipAheadMatchesMathRand is the differential test the skip-ahead rests
// on: for every seed class Seed normalizes differently and a thousand random
// ones, each of the 273 draws computed from the seed equals the draw a freshly
// seeded math/rand source produces.
func TestSkipAheadMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 11, lehmerM - 1, lehmerM, lehmerM + 1, 7 * lehmerM,
		-lehmerM, math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	tab := skipAhead()
	for _, seed := range seeds {
		src := rand.NewSource(seed).(rand.Source64)
		norm := normSeed(seed)
		for j := 0; j < rngTap; j++ {
			if got, want := tab.draw(norm, j), src.Uint64(); got != want {
				t.Fatalf("seed %d draw %d = %#x, math/rand gives %#x", seed, j, got, want)
			}
		}
	}
}

// freshSourceBlock is the definition of a Random block: private lines, then
// table reads drawn from a fresh source seeded with Seed+b.
func freshSourceBlock(r Random, b int) []uint64 {
	var want []uint64
	start := r.Base + uint64(b)*uint64(r.BytesPerBlock)
	for off := 0; off < r.BytesPerBlock; off += r.LineBytes {
		want = append(want, start+uint64(off))
	}
	lines := r.TableBytes / r.LineBytes
	if lines < 1 {
		lines = 1
	}
	rng := rand.New(rand.NewSource(r.Seed + int64(b)))
	for k := 0; k < r.TableReads; k++ {
		want = append(want, r.TableBase+uint64(rng.Intn(lines))*uint64(r.LineBytes))
	}
	return want
}

func checkRandomBlocks(t *testing.T, r Random, blocks ...int) {
	t.Helper()
	appendBlock := r.blockAppender() // one appender across blocks, as expand uses it
	for _, b := range blocks {
		got, want := appendBlock(nil, b), freshSourceBlock(r, b)
		if len(got) != len(want) {
			t.Fatalf("%+v block %d: %d accesses, want %d", r, b, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v block %d access %d = %#x, a fresh source gives %#x", r, b, i, got[i], want[i])
			}
		}
	}
}

// TestRandomBlockMatchesFreshSource covers both sides of the fast-path
// condition: shapes where Intn is one masked draw take the skip-ahead, a
// non-power-of-two table (Int31n's rejection loop) and a block that draws past
// the seeded words take the re-seeded source, and all equal a fresh source per
// block.
func TestRandomBlockMatchesFreshSource(t *testing.T) {
	base := Random{Blocks: 64, BytesPerBlock: 256, LineBytes: 64, Seed: 11, TableBase: 1 << 34}
	for _, tc := range []struct {
		name              string
		tableLines, reads int
	}{
		{"rg", 1024, 8},
		{"one-line-table", 1, 8},
		{"largest-mask", 1 << 30, 16},
		{"last-seeded-draw", 1024, rngTap},
		{"past-seeded-draws", 1024, rngTap + 1},
		{"rejection-loop", 1000, 8},
		{"three-lines", 3, 64},
		{"int63n", 1<<31 + 5, 4},
		{"int63n-mask", 1 << 31, 4},
		{"no-reads", 1024, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := base
			r.TableBytes, r.TableReads = tc.tableLines*r.LineBytes, tc.reads
			checkRandomBlocks(t, r, 0, 1, 2, 63, 5, 5)
			r.Seed = math.MaxInt64 // Seed+b wraps, as int64 addition does
			checkRandomBlocks(t, r, 0, 1, 7)
			r.Seed = -3 // crosses the zero seed Seed replaces
			checkRandomBlocks(t, r, 2, 3, 4)
		})
	}
}

func FuzzRandomBlockMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 11, lehmerM - 1, lehmerM, lehmerM + 1, 7 * lehmerM, math.MinInt64, math.MaxInt64} {
		f.Add(seed, 0, 8, 1024)
		f.Add(seed, 12287, rngTap, 1)
	}
	f.Add(int64(11), 5, rngTap+1, 1024) // past the seeded words
	f.Add(int64(11), 5, 8, 1000)        // rejection loop
	f.Add(int64(11), 5, 8, 1<<31+5)     // Int63n
	f.Add(int64(11), 5, 8, 1<<31)       // Int63n's own mask
	f.Fuzz(func(t *testing.T, seed int64, block, reads, tableLines int) {
		if reads < 0 || reads > 2*rngTap || tableLines < 0 || tableLines > 1<<40 {
			t.Skip()
		}
		r := Random{Blocks: 1, BytesPerBlock: 128, TableBytes: tableLines * 64, TableReads: reads, LineBytes: 64, Seed: seed, TableBase: 1 << 34}
		checkRandomBlocks(t, r, block)
	})
}
