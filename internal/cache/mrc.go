// Single-pass miss-ratio-curve engine (Mattson et al.'s stack algorithm
// with a probabilistic set-conflict correction): one traversal of the trace
// yields the miss ratio at every requested capacity simultaneously,
// replacing one full set-associative simulation per capacity point on the
// model-build hot path.
//
// Phase 1 computes, for each access, its LRU reuse distance — the number of
// distinct cache lines touched since the previous access to the same line.
// Trace position i carries a 1 while it is some line's most recent access,
// so the count of set positions after a line's previous access is exactly
// its reuse distance. The positions are one bit each, and a Fenwick (binary
// indexed) tree holds the popcount of every completed 64-position word:
// rank(prev) is a tree prefix plus the popcount of one masked word, in
// O(log(N/64)) on a structure that stays cache-resident (64 KB of tree and
// 122 KB of bits for a 10⁶-access trace). Under fully-associative LRU an
// access with distance d hits a cache of L lines iff d < L, so a histogram
// of distances answers every capacity at once, exactly.
//
// For set-associative geometries the hard threshold is replaced by the
// Hill–Smith expectation (the same model StatStack uses): with hashed set
// indexing the d intervening lines distribute uniformly over S sets, so the
// access misses a W-way cache with probability P[Binomial(d, 1/S) >= W].
// That tail is a function of (S, W) alone; phase 2 folds the distance
// histogram through a table of it built once per geometry (tailTable).
//
// The set-associative simulator (SimulateTrace / missRatioCurve) remains
// the validation oracle: the property tests in mrc_test.go and the
// engine/workloads parity suites bound the per-point deviation (see
// mrcDeviationBound).
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"slate/internal/memo"
)

// mrcScratch is the per-pass working memory: the position bitmap, the
// Fenwick tree over its word popcounts, the paged line table and the
// distance histogram. Pooled because the harness builds hundreds of entries.
// At the default trace length (10⁶ accesses) the bitmap and tree are under
// 200 KB and the page directory about 100 KB; the arena holds one page per
// page of lines the trace touches, so it follows the trace's footprint, and
// never exceeds 2n slots (see reuseDistances). The 4 MB histogram is cleared
// by the pass that filled it, over the bins it touched only, so it is all
// zero whenever it sits in the pool.
type mrcScratch struct {
	words []uint64 // bit i set while position i is some line's most recent access
	tree  []int32  // Fenwick tree, 1-based over words: popcounts of completed words
	// The line table. A line's slot is page[line&pageMask] of the page numbered
	// line>>pageBits; a slot is the 1-based position of its line's last
	// access, 0 = not touched yet.
	arena   []int32  // the pages, back to back, in the order the pass first touched them
	dirKey  []uint64 // page directory, open-addressed: page number of an occupied entry
	dirPage []int32  // 1 + the entry's page index into arena, 0 = empty entry
	hist    []int32
}

var mrcPool = sync.Pool{New: func() any { return new(mrcScratch) }}

// Page sizes of the line table, in lines: a pass starts at 1<<maxPageBits
// and, if the trace's pages would not fit the arena's budget, starts over
// pageBitsStep bits smaller, down to one line per page, which always fits.
const (
	maxPageBits  = 9
	pageBitsStep = 3
)

// grow resizes and zeroes the scratch for a pass over a trace of n accesses
// at 1<<pageBits lines per page whose arena may hold budget slots. hist is
// zero already (see mrcScratch); the arena is emptied, and each page is
// zeroed when the pass takes it.
func (s *mrcScratch) grow(n, budget int, pageBits uint) {
	nw := (n + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
		s.tree = make([]int32, nw+1)
	} else {
		s.words = s.words[:nw]
		s.tree = s.tree[:nw+1]
		clear(s.words)
		clear(s.tree)
	}
	// A pass takes no more pages than the trace has distinct lines, nor
	// more than the budget admits: the directory is sized to a <=50% load
	// factor at that bound. A key means something only where its page is
	// non-zero, so only the pages are cleared.
	maxPages := min(n, budget>>pageBits)
	m := 16
	for m < 2*maxPages {
		m <<= 1
	}
	if cap(s.dirPage) < m {
		s.dirKey = make([]uint64, m)
		s.dirPage = make([]int32, m)
	} else {
		s.dirKey = s.dirKey[:m]
		s.dirPage = s.dirPage[:m]
		clear(s.dirPage)
	}
	s.arena = s.arena[:0]
	// A reuse distance counts distinct lines other than the accessed one,
	// so it is below n.
	if cap(s.hist) < n {
		s.hist = make([]int32, n)
	} else {
		s.hist = s.hist[:n]
	}
}

// newPage takes and zeroes the next arena page for page number pg, whose
// directory entry is the empty entry h, and returns its arena offset. It
// reports false if the page would take the arena past budget slots.
func (s *mrcScratch) newPage(h int, pg uint64, pageBits uint, budget int) (int, bool) {
	off, size := len(s.arena), 1<<pageBits
	if off+size > budget {
		return 0, false
	}
	if off+size > cap(s.arena) {
		// Double, but never past the budget.
		grown := make([]int32, off, min(max(2*cap(s.arena), off+size, 64<<pageBits), budget))
		copy(grown, s.arena)
		s.arena = grown
	}
	s.arena = s.arena[:off+size]
	clear(s.arena[off:])
	s.dirKey[h], s.dirPage[h] = pg, int32(off>>pageBits)+1
	return off, true
}

// mrcGeometry is one capacity point's derived set-associative shape,
// normalized exactly as newCache normalizes a Config (power-of-two set rounding).
type mrcGeometry struct {
	lines int // total capacity in lines
	sets  int
	ways  int
}

// geometryAt derives the sets/ways the oracle would use for cfg at the
// given capacity. A capacity below one line is reported as zero lines.
func geometryAt(cfg Config, sizeBytes int) mrcGeometry {
	lines := sizeBytes / cfg.LineBytes
	if lines < 1 {
		return mrcGeometry{}
	}
	ways := cfg.Ways
	if ways <= 0 || ways > lines {
		ways = lines
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
		ways = lines / sets
	}
	return mrcGeometry{lines: sets * ways, sets: sets, ways: ways}
}

// ReuseDistanceMRC evaluates the trace's miss ratio at each capacity in
// sizesBytes (geometry otherwise as cfg, mirroring missRatioCurve) in a
// single traversal. Capacities need not be sorted and duplicates are
// allowed. An empty trace reports 0 at every point, matching
// Stats.MissRate's untouched-cache convention. For fully-associative
// geometries (cfg.Ways <= 0) the result is exact; for set-associative ones
// the binomial conflict expectation applies.
func ReuseDistanceMRC(cfg Config, trace []uint64, sizesBytes []int) []float64 {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: ReuseDistanceMRC LineBytes %d must be a positive power of two", cfg.LineBytes))
	}
	out := make([]float64, len(sizesBytes))
	n := len(trace)
	if n == 0 || len(sizesBytes) == 0 {
		return out
	}
	if n >= 1<<31-1 {
		// Positions and counters are int32; the model caps traces far below
		// this (engine.TraceModel.MaxAccesses defaults to 1e6).
		panic(fmt.Sprintf("cache: ReuseDistanceMRC trace length %d exceeds int32 positions", n))
	}

	// No deferred Put: a pass that panics leaves its histogram dirty, and that
	// scratch must not reach the pool.
	s := mrcPool.Get().(*mrcScratch)
	cold, maxd := s.reuseDistances(trace, uint(bits.TrailingZeros(uint(cfg.LineBytes))))

	// Phase 2: fold the histogram through every capacity point's miss
	// probability in one ascending walk over its non-zero bins. Each point's
	// sum takes its terms in ascending d, and a skipped bin — empty, or one
	// whose probability is 0 — would have added exactly +0, so the result is
	// the float a bin-by-bin walk per point produces.
	points := make([]missCurve, len(sizesBytes))
	for j, size := range sizesBytes {
		points[j] = missCurveAt(geometryAt(cfg, size))
	}
	reuse := make([]float64, len(sizesBytes)) // expected non-cold misses
	for d := int32(0); d <= maxd; d++ {
		h := s.hist[d]
		if h == 0 {
			continue
		}
		for j := range points {
			reuse[j] += points[j].at(d) * float64(h)
		}
	}
	for j := range out {
		out[j] = (float64(cold) + reuse[j]) / float64(n)
	}
	clear(s.hist[:maxd+1])
	mrcPool.Put(s)
	return out
}

// missCurve is one capacity point's miss probability as a function of reuse
// distance: 0 below lo, tail[d-lo] inside the table, 1 past its end.
type missCurve struct {
	lo   int32
	tail []float64
}

// missCurveAt returns the geometry's curve: a hard threshold at the capacity
// for a fully-associative cache (the stack property is exact), the shared
// binomial tail table for a set-associative one, and a constant 1 for a
// capacity below one line, which can never hit.
func missCurveAt(g mrcGeometry) missCurve {
	if g.sets <= 1 {
		return missCurve{lo: int32(g.lines)}
	}
	t := tailTableFor(g.sets, g.ways)
	return missCurve{lo: t.dLo, tail: t.tail}
}

func (c missCurve) at(d int32) float64 {
	switch i := int(d - c.lo); {
	case i < 0:
		return 0
	case i < len(c.tail):
		return c.tail[i]
	}
	return 1
}

// ReuseDistanceMRCWorkers is ReuseDistanceMRC. The workers argument is
// ignored: with the tail tables precomputed, integrating a capacity point
// costs microseconds, less than handing it to a goroutine, and the distance
// extraction is inherently sequential. The name and signature stay for
// callers written against the fanned phase 2.
func ReuseDistanceMRCWorkers(cfg Config, trace []uint64, sizesBytes []int, workers int) []float64 {
	return ReuseDistanceMRC(cfg, trace, sizesBytes)
}

// reuseDistances is phase 1: it sizes the scratch for the trace, extracts
// every access's reuse distance into s.hist, and returns the number of cold
// (first-touch) accesses and the largest distance seen (-1 if no line was
// reused).
//
// The line table's arena may hold 2n slots, the budget the all-distinct
// worst case needs in an open-addressed table at a <=50% load factor. A
// trace whose pages would take more — lines so sparse that few share a page
// — is passed again at a smaller page size; at one line per page it needs
// at most n slots. Every pass finds each access's previous position, so the
// histogram does not depend on the page size.
func (s *mrcScratch) reuseDistances(trace []uint64, lineShift uint) (cold int64, maxd int32) {
	if len(trace) == 0 {
		return 0, -1
	}
	budget := 2 * len(trace)
	pageBits := uint(maxPageBits)
	for pageBits > 0 && 1<<pageBits > budget {
		pageBits -= pageBitsStep
	}
	for {
		cold, maxd, ok := s.pass(trace, lineShift, pageBits, budget)
		if ok || pageBits == 0 {
			return cold, maxd
		}
		clear(s.hist[:maxd+1])
		pageBits -= pageBitsStep
	}
}

// pass is one attempt of reuseDistances at 1<<pageBits lines per page. It
// stops and reports false, with the histogram filled up to maxd, as soon as
// the trace needs more than budget arena slots.
func (s *mrcScratch) pass(trace []uint64, lineShift, pageBits uint, budget int) (cold int64, maxd int32, ok bool) {
	n := len(trace)
	s.grow(n, budget, pageBits)
	words, tree, hist := s.words, s.tree, s.hist
	pageSize, pageMask := 1<<pageBits, uint64(1)<<pageBits-1
	dirKey, dirPage := s.dirKey, s.dirPage
	dirMask := len(dirPage) - 1
	dirShift := uint(64 - bits.TrailingZeros(uint(len(dirPage))))
	// lookup returns the arena offset of page pg, taking a new page on its
	// first touch.
	lookup := func(pg uint64) (int, bool) {
		h := int((pg * 0x9E3779B97F4A7C15) >> dirShift)
		for dirPage[h] != 0 && dirKey[h] != pg {
			h = (h + 1) & dirMask
		}
		if q := dirPage[h]; q != 0 {
			return int(q-1) << pageBits, true
		}
		return s.newPage(h, pg, pageBits, budget)
	}

	nw := len(words)
	treeAdd := func(i int, v int32) {
		for ; i <= nw; i += i & -i {
			tree[i] += v
		}
	}
	treePrefix := func(i int) int32 {
		var sum int32
		for ; i > 0; i -= i & -i {
			sum += tree[i]
		}
		return sum
	}

	// The last page: while the trace stays in it, no directory lookup.
	curPage := trace[0] >> lineShift >> pageBits
	off, _ := lookup(curPage) // the first page always fits
	cur := s.arena[off : off+pageSize]

	maxd = -1
	var active int32 // distinct lines seen so far = set bits in words
	for w0 := 0; w0 < n; w0 += 64 {
		cw := w0 >> 6 // the word being filled; it is not in the tree yet
		if cw > 0 {
			// The previous word is complete: its population enters the tree.
			if c := bits.OnesCount64(words[cw-1]); c > 0 {
				treeAdd(cw, int32(c))
			}
		}
		for j, addr := range trace[w0:min(w0+64, n)] {
			i, bit := w0+j, uint64(1)<<uint(j) // position i is bit j of words[cw]
			line := addr >> lineShift
			if pg := line >> pageBits; pg != curPage {
				if off, ok = lookup(pg); !ok {
					return int64(active), maxd, false
				}
				curPage, cur = pg, s.arena[off:off+pageSize]
			}
			slot := &cur[line&pageMask]
			p := *slot
			*slot = int32(i + 1)
			if p == 0 { // cold: first touch of this line
				words[cw] |= bit
				active++
				continue
			}
			// Reuse distance: distinct lines whose most recent access came
			// after prev — the set positions strictly beyond it.
			prev := int(p - 1)
			pw := prev >> 6
			pbit := uint64(1) << (uint(prev) & 63)
			upTo := pbit<<1 - 1 // bits at or below prev (all ones when prev is bit 63)
			var d int32
			if pw == cw {
				// prev is in the word being filled, which holds every
				// position after it.
				d = int32(bits.OnesCount64(words[cw] &^ upTo))
				words[cw] = words[cw]&^pbit | bit
			} else {
				d = active - treePrefix(pw) - int32(bits.OnesCount64(words[pw]&upTo))
				words[pw] &^= pbit
				treeAdd(pw+1, -1)
				words[cw] |= bit
			}
			hist[d]++
			if d > maxd {
				maxd = d
			}
		}
	}
	// Every cold access added one distinct line.
	cold = int64(active)
	return cold, maxd, true
}

// tailTable holds P[Binomial(d, 1/sets) >= ways] — the probability that an
// access at reuse distance d misses a sets×ways LRU cache with hashed
// indexing, because at least `ways` of the d intervening distinct lines
// hashed into its set (Hill & Smith's conflict model) — for every d where it
// is not numerically 0 or 1.
type tailTable struct {
	dLo  int32     // below dLo the tail is 0
	tail []float64 // tail[d-dLo]; past its end the tail is 1
}

// tailTables memoizes one tailTable per (sets, ways). The table depends on
// nothing in the trace, so it is built once per process and geometry and
// read-only afterwards. A device model asks for its eight capacity points
// only; for the 64 KiB–6 MiB ladder at 64-byte lines and 16 ways (every
// device preset) that is 0.83 M entries, 6.6 MB, in total, the 6 MiB point
// alone 3.1 MB.
var tailTables memo.Map[[2]int, *tailTable]

func tailTableFor(sets, ways int) *tailTable {
	t, _ := tailTables.Get([2]int{sets, ways}, func() (*tailTable, error) {
		return newTailTable(sets, ways), nil
	})
	return t
}

// newTailTable builds the table by advancing the binomial pmf one d at a
// time over the window where the tail is distinguishable from its clamp, so
// cost and size are O(window × ways) and O(window).
func newTailTable(sets, ways int) *tailTable {
	q := 1.0 / float64(sets)
	// The tail transitions near d ≈ sets·ways with width ~ sets·sqrt(ways);
	// ±12 widths put the clamp error below 1e-30.
	width := float64(sets) * (math.Sqrt(float64(ways)) + 1)
	dLo := int32(float64(sets*ways) - 12*width)
	if dLo < int32(ways) {
		dLo = int32(ways) // below `ways` intervening lines a miss is impossible
	}
	dHi := float64(sets*ways) + 12*width
	// pmf[k] = P[Binomial(d, q) = k] for k < ways, seeded directly at dLo
	// via log-gamma, then advanced one d at a time.
	pmf := make([]float64, ways)
	lq, l1q := math.Log(q), math.Log1p(-q)
	d := float64(dLo)
	lgd, _ := math.Lgamma(d + 1)
	for k := 0; k < ways && float64(k) <= d; k++ {
		lgk, _ := math.Lgamma(float64(k) + 1)
		lgdk, _ := math.Lgamma(d - float64(k) + 1)
		pmf[k] = math.Exp(lgd - lgk - lgdk + float64(k)*lq + (d-float64(k))*l1q)
	}
	t := &tailTable{dLo: dLo, tail: make([]float64, 0, int(dHi)-int(dLo)+1)}
	for di := dLo; float64(di) <= dHi; di++ {
		hit := 0.0
		for _, p := range pmf {
			hit += p
		}
		// Rounding can leave 1-hit a hair below zero where the tail is
		// vanishing; such a bin contributes no miss.
		t.tail = append(t.tail, math.Max(1-hit, 0))
		// Advance pmf from d=di to d=di+1: one more intervening line lands
		// in the set with probability q.
		for k := ways - 1; k > 0; k-- {
			pmf[k] = pmf[k]*(1-q) + pmf[k-1]*q
		}
		pmf[0] *= 1 - q
	}
	return t
}
