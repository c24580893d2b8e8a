package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// mrcDeviationBound is the documented absolute per-point deviation between
// the one-pass reuse-distance MRC and the set-associative oracle (TitanXpL2
// geometry), asserted here and by the engine and workloads parity suites
// across every workload pattern. DESIGN.md gives the measured maxima.
const mrcDeviationBound = 0.04

// mrcTestSizes mirrors the engine's mrcSizes capacity ladder.
var mrcTestSizes = []int{
	64 << 10, 128 << 10, 256 << 10, 512 << 10,
	1 << 20, 3 << 20 / 2, 3 << 20, 6 << 20,
}

// faCfg is the fully-associative geometry used where the one-pass engine is
// exact rather than approximate.
var faCfg = Config{LineBytes: 64, Ways: 0}

// mrcTestTraces builds the four canonical access shapes the property tests
// sweep: seeded random, streaming (no reuse), strided, and shared-reuse
// (every "block" re-reads a hot region then walks a private slice).
func mrcTestTraces(seed int64, n int) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	random := make([]uint64, n)
	for i := range random {
		random[i] = uint64(rng.Intn(n)) * 64
	}
	streaming := make([]uint64, n)
	for i := range streaming {
		streaming[i] = uint64(i) * 64
	}
	strided := make([]uint64, n)
	for i := range strided {
		strided[i] = uint64(i%4096)*4096 + uint64(i/4096)*64
	}
	shared := make([]uint64, 0, n)
	const pivotLines, sliceLines = 64, 448
	for b := 0; len(shared) < n; b++ {
		for l := 0; l < pivotLines; l++ {
			shared = append(shared, uint64(l)*64)
		}
		base := uint64(1<<22) + uint64(b)*sliceLines*64
		for l := 0; l < sliceLines; l++ {
			shared = append(shared, base+uint64(l)*64)
		}
	}
	return map[string][]uint64{
		"random":    random,
		"streaming": streaming,
		"strided":   strided,
		"shared":    shared[:n],
	}
}

// Against a fully-associative LRU oracle the reuse-distance MRC is not an
// approximation: the two must agree exactly at every capacity.
func TestReuseDistanceMRCExactOnFullyAssociative(t *testing.T) {
	// Small capacities keep the FA oracle tractable: it scans every way
	// (= every line) per access, so cost is trace × capacity.
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 128 << 10}
	for name, trace := range mrcTestTraces(7, 30_000) {
		oracle := missRatioCurve(faCfg, trace, sizes)
		got := ReuseDistanceMRC(faCfg, trace, sizes)
		for i := range sizes {
			if math.Abs(got[i]-oracle[i]) > 1e-12 {
				t.Errorf("%s @ %d KiB: one-pass %.6f != FA oracle %.6f",
					name, sizes[i]>>10, got[i], oracle[i])
			}
		}
	}
}

// Property: against the production 16-way set-associative oracle
// (TitanXpL2 geometry), the one-pass curve — reuse distances folded through
// the binomial set-conflict model — deviates by at most mrcDeviationBound
// at every capacity, on every trace shape, across seeds.
func TestReuseDistanceMRCDeviationBound(t *testing.T) {
	cfg := TitanXpL2()
	for _, seed := range []int64{1, 2, 42} {
		for name, trace := range mrcTestTraces(seed, 120_000) {
			oracle := missRatioCurve(cfg, trace, mrcTestSizes)
			got := ReuseDistanceMRC(cfg, trace, mrcTestSizes)
			for i := range mrcTestSizes {
				if d := math.Abs(got[i] - oracle[i]); d > mrcDeviationBound {
					t.Errorf("seed %d %s @ %d KiB: |%.4f - %.4f| = %.4f exceeds bound %.3f",
						seed, name, mrcTestSizes[i]>>10, got[i], oracle[i], d, mrcDeviationBound)
				}
			}
		}
	}
}

// ReuseDistanceMRCWorkers keeps its signature for callers written against
// the fanned integration it no longer has: whatever worker count they pass,
// they get ReuseDistanceMRC's result.
func TestReuseDistanceMRCWorkersBitIdentical(t *testing.T) {
	for _, cfg := range []Config{faCfg, TitanXpL2()} {
		for name, trace := range mrcTestTraces(3, 50_000) {
			ref := ReuseDistanceMRC(cfg, trace, mrcTestSizes)
			for _, workers := range []int{2, 3, 8} {
				got := ReuseDistanceMRCWorkers(cfg, trace, mrcTestSizes, workers)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s ways=%d workers=%d @ %d KiB: %v != sequential %v",
							name, cfg.Ways, workers, mrcTestSizes[i]>>10, got[i], ref[i])
					}
				}
			}
		}
	}
}

// Miss ratios must be non-increasing in capacity. Exact inclusion gives this
// for the fully-associative path; for the binomial path it holds because
// every step of the mrcSizes ladder grows sets or ways with the other fixed,
// which shrinks the binomial tail pointwise in d.
func TestReuseDistanceMRCMonotonic(t *testing.T) {
	for _, cfg := range []Config{faCfg, TitanXpL2()} {
		for name, trace := range mrcTestTraces(9, 80_000) {
			mrc := ReuseDistanceMRC(cfg, trace, mrcTestSizes)
			for i := 1; i < len(mrc); i++ {
				if mrc[i] > mrc[i-1]+1e-12 {
					t.Errorf("%s ways=%d: miss ratio rose from %.4f to %.4f at %d KiB",
						name, cfg.Ways, mrc[i-1], mrc[i], mrcTestSizes[i]>>10)
				}
			}
		}
	}
}

func TestReuseDistanceMRCEdgeCases(t *testing.T) {
	// Empty trace: all zeros, matching Stats.MissRate's convention.
	for _, v := range ReuseDistanceMRC(faCfg, nil, mrcTestSizes) {
		if v != 0 {
			t.Fatal("empty trace should report 0 miss ratio")
		}
	}
	// No capacities: empty result.
	if got := ReuseDistanceMRC(faCfg, []uint64{0, 64}, nil); len(got) != 0 {
		t.Fatalf("nil sizes gave %v", got)
	}
	// Unsorted and duplicate capacities map back to caller order, and equal
	// capacities report equal ratios.
	trace := mrcTestTraces(5, 20_000)["random"]
	sizes := []int{1 << 20, 64 << 10, 1 << 20, 128 << 10}
	got := ReuseDistanceMRC(faCfg, trace, sizes)
	sorted := ReuseDistanceMRC(faCfg, trace, []int{64 << 10, 128 << 10, 1 << 20})
	if got[1] != sorted[0] || got[3] != sorted[1] || got[0] != sorted[2] || got[2] != sorted[2] {
		t.Fatalf("unsorted sizes mismatch: %v vs sorted %v", got, sorted)
	}
	// A capacity below one line can never hit.
	tiny := ReuseDistanceMRC(faCfg, trace, []int{16})
	if tiny[0] != 1 {
		t.Fatalf("sub-line capacity miss ratio = %v, want 1", tiny[0])
	}
	// Repeated runs through the scratch pool stay deterministic (both paths).
	for _, cfg := range []Config{faCfg, TitanXpL2()} {
		a := ReuseDistanceMRC(cfg, trace, mrcTestSizes)
		b := ReuseDistanceMRC(cfg, trace, mrcTestSizes)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("pooled scratch leaked state between runs")
			}
		}
	}
}

func TestReuseDistanceMRCPanicsOnBadLineBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two lineBytes accepted")
		}
	}()
	ReuseDistanceMRC(Config{LineBytes: 48}, []uint64{0}, []int{1 << 10})
}

// refReuseDistances is the distance extraction the bitmap rank structure
// replaced, kept as the differential reference: a Fenwick tree with one
// int32 per trace position (position p holds 1 while p is some line's most
// recent access) and a Go map for line→last position. It returns the cold
// count and the distance histogram (length maxd+1, nil if nothing is reused).
func refReuseDistances(trace []uint64, lineShift uint) (cold int64, hist []int32) {
	n := len(trace)
	tree := make([]int32, n+1)
	add := func(i int, v int32) {
		for ; i <= n; i += i & -i {
			tree[i] += v
		}
	}
	prefix := func(i int) int32 {
		var sum int32
		for ; i > 0; i -= i & -i {
			sum += tree[i]
		}
		return sum
	}
	last := map[uint64]int{}
	var active int32
	for i, addr := range trace {
		pos, line := i+1, addr>>lineShift
		prev, seen := last[line]
		last[line] = pos
		add(pos, 1)
		if !seen {
			active++
			cold++
			continue
		}
		d := int(active - prefix(prev))
		add(prev, -1)
		for len(hist) <= d {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return cold, hist
}

// refBinomialMisses is the per-call tail recurrence the geometry-keyed tail
// tables replaced: Σ P[Binomial(d, 1/sets) >= ways]·hist[d], the pmf seeded
// at the window's low edge and advanced bin by bin on every call.
func refBinomialMisses(hist []int32, sets, ways int) float64 {
	maxd := int32(len(hist) - 1)
	q := 1.0 / float64(sets)
	width := float64(sets) * (math.Sqrt(float64(ways)) + 1)
	dLo := int32(float64(sets*ways) - 12*width)
	if dLo < int32(ways) {
		dLo = int32(ways)
	}
	if dLo > maxd {
		return 0
	}
	dHi := float64(sets*ways) + 12*width
	pmf := make([]float64, ways)
	lq, l1q := math.Log(q), math.Log1p(-q)
	d := float64(dLo)
	lgd, _ := math.Lgamma(d + 1)
	for k := 0; k < ways && float64(k) <= d; k++ {
		lgk, _ := math.Lgamma(float64(k) + 1)
		lgdk, _ := math.Lgamma(d - float64(k) + 1)
		pmf[k] = math.Exp(lgd - lgk - lgdk + float64(k)*lq + (d-float64(k))*l1q)
	}
	var misses float64
	for di := dLo; di <= maxd; di++ {
		if float64(di) > dHi {
			for ; di <= maxd; di++ {
				misses += float64(hist[di])
			}
			break
		}
		hit := 0.0
		for _, p := range pmf {
			hit += p
		}
		if tail := 1 - hit; tail > 0 {
			misses += tail * float64(hist[di])
		}
		for k := ways - 1; k > 0; k-- {
			pmf[k] = pmf[k]*(1-q) + pmf[k-1]*q
		}
		pmf[0] *= 1 - q
	}
	return misses
}

// refMRC is ReuseDistanceMRC as it stood before the rewrite, over the two
// references above.
func refMRC(cfg Config, trace []uint64, sizesBytes []int) []float64 {
	out := make([]float64, len(sizesBytes))
	if len(trace) == 0 {
		return out
	}
	cold, hist := refReuseDistances(trace, uint(bits.TrailingZeros(uint(cfg.LineBytes))))
	for j, size := range sizesBytes {
		g := geometryAt(cfg, size)
		if g.lines < 1 {
			out[j] = 1
			continue
		}
		misses := float64(cold)
		if g.sets <= 1 {
			for d := g.lines; d < len(hist); d++ {
				misses += float64(hist[d])
			}
		} else {
			misses += refBinomialMisses(hist, g.sets, g.ways)
		}
		out[j] = misses / float64(len(trace))
	}
	return out
}

// differentialTraces are the seeded shapes plus the edges the bitmap
// introduces: lengths around the 64-position word boundary, a single line
// repeated (prev and pos always in the word being filled, or prev the last
// bit of the word just completed), all-distinct lines, and reuses whose
// previous access is bit 63 of a completed word.
func differentialTraces() map[string][]uint64 {
	out := map[string][]uint64{}
	for _, seed := range []int64{1, 7, 42} {
		for name, tr := range mrcTestTraces(seed, 40_000) {
			out[fmt.Sprintf("%s/seed%d", name, seed)] = tr
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 1000} {
		repeated := make([]uint64, n)
		distinct := make([]uint64, n)
		few := make([]uint64, n)
		for i := range distinct {
			distinct[i] = uint64(i) * 64
			few[i] = uint64(rng.Intn(24)) * 64
		}
		out[fmt.Sprintf("repeated/n%d", n)] = repeated
		out[fmt.Sprintf("distinct/n%d", n)] = distinct
		out[fmt.Sprintf("few/n%d", n)] = few
	}
	// Line X is last touched at position 63 (bit 63 of word 0) and at
	// position 127, and reused from the next word and from two words on.
	const x = 1 << 20
	lastBit := make([]uint64, 300)
	for i := range lastBit {
		lastBit[i] = uint64(i%40) * 64
	}
	lastBit[63], lastBit[64], lastBit[127], lastBit[290] = x, x, x, x
	out["prev-is-last-bit"] = lastBit
	// A stride of eight lines spans eight times the slots it touches at every
	// page size but one line, more than the arena's budget: the pass restarts
	// down the whole ladder.
	strided8 := make([]uint64, 5000)
	for i := range strided8 {
		strided8[i] = uint64(i%3000) * 8 * 64
	}
	out["stride-8-lines"] = strided8
	return out
}

// differentialSizes are the capacities the differential tests compare at:
// small ones, which short traces reach, and the engine's ladder.
var differentialSizes = append([]int{16, 1 << 10, 4 << 10, 16 << 10}, mrcTestSizes...)

// matchesReference asserts that the paged line table and the bitmap +
// word-level Fenwick extraction produce the reference's distance histogram
// exactly, and that the curves built from it are the same float64s — fully
// associative and through the binomial tail tables. It returns the scratch
// the extraction ran on.
func matchesReference(t *testing.T, name string, trace []uint64) *mrcScratch {
	t.Helper()
	wantCold, wantHist := refReuseDistances(trace, 6)
	s := new(mrcScratch)
	cold, maxd := s.reuseDistances(trace, 6)
	if cold != wantCold || int(maxd) != len(wantHist)-1 {
		t.Fatalf("%s: cold %d maxd %d, reference cold %d maxd %d", name, cold, maxd, wantCold, len(wantHist)-1)
	}
	for d, want := range wantHist {
		if s.hist[d] != want {
			t.Fatalf("%s: hist[%d] = %d, reference %d", name, d, s.hist[d], want)
		}
	}
	for _, cfg := range []Config{faCfg, TitanXpL2()} {
		got, want := ReuseDistanceMRC(cfg, trace, differentialSizes), refMRC(cfg, trace, differentialSizes)
		for i, size := range differentialSizes {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s ways=%d @ %d B: %v (%016x) != reference %v (%016x)", name, cfg.Ways, size,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	return s
}

func TestReuseDistanceMRCMatchesFenwickReference(t *testing.T) {
	for name, trace := range differentialTraces() {
		matchesReference(t, name, trace)
	}
}

// fuzzTrace decodes b into a trace of at most 1<<14 accesses. Each op byte's
// low two bits pick what follows: a dense run of line-consecutive addresses;
// a line just below, at or just above a page boundary (k·page−1, k·page,
// k·page+1) for a page size of the line table's ladder; a repeat of an
// earlier access; or an arbitrary 64-bit address.
func fuzzTrace(b []byte) []uint64 {
	next := func() uint64 {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return uint64(c)
	}
	var trace []uint64
	for len(b) > 0 && len(trace) < 1<<14 {
		op := next()
		switch op & 3 {
		case 0:
			start := next()<<8 | next()
			for l := range op>>2 + 1 {
				trace = append(trace, (start+l)<<6)
			}
		case 1:
			page := uint64(1) << (maxPageBits - pageBitsStep*(next()%3))
			line := (next()+1)*page + (op>>2)%3 - 1
			trace = append(trace, line<<6|op>>4) // op>>4 < 64: an offset inside the line
		case 2:
			if len(trace) > 0 {
				trace = append(trace, trace[(next()<<8|next())%uint64(len(trace))])
			}
		case 3:
			var a uint64
			for range 8 {
				a = a<<8 | next()
			}
			trace = append(trace, a)
		}
	}
	return trace
}

// The paged line table against the per-position reference on decoded
// traces: page-boundary neighbours, runs that cross pages, repeats, and
// arbitrary addresses sparse enough to restart the pass at smaller pages.
func FuzzReuseDistanceMatchesReference(f *testing.F) {
	f.Add([]byte{0xfc, 0, 0, 0x01, 0, 0, 0x05, 1, 1, 0x09, 2, 0, 0x02, 0, 0, 0x02, 0, 5})
	f.Add([]byte{0x03, 1, 2, 3, 4, 5, 6, 7, 8, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0x02, 0, 1})
	f.Add([]byte{0x01, 0, 0, 0x05, 0, 0, 0x09, 0, 0, 0x01, 1, 0, 0x05, 1, 0, 0x09, 1, 0, 0x02, 0, 0, 0x02, 0, 3, 0x02, 0, 6})
	f.Fuzz(func(t *testing.T, b []byte) {
		matchesReference(t, fmt.Sprintf("%x", b), fuzzTrace(b))
	})
}

// A trace whose every line sits alone in its page at every page size but
// one line restarts the pass down the whole ladder. It must still be exact,
// and the table must stay inside its budget: an arena of at most 2n slots
// and a directory at most half full.
func TestReuseDistanceSparseTraceStaysBounded(t *testing.T) {
	const lines = 200_000
	page := 1 << maxPageBits
	rng := rand.New(rand.NewSource(3))
	trace := make([]uint64, 0, 2*lines)
	for k := 0; k < lines; k++ {
		trace = append(trace, uint64(k*page+rng.Intn(page))<<6)
	}
	for _, k := range rng.Perm(lines) {
		trace = append(trace, trace[k])
	}
	s := matchesReference(t, "sparse", trace)
	if n := len(trace); cap(s.arena) > 2*n {
		t.Errorf("arena capacity %d slots for %d accesses, budget %d", cap(s.arena), n, 2*n)
	}
	if len(s.arena) != lines {
		t.Errorf("arena holds %d slots for %d lines, want one line per page", len(s.arena), lines)
	}
	used := 0
	for _, q := range s.dirPage {
		if q != 0 {
			used++
		}
	}
	if 2*used > len(s.dirPage) {
		t.Errorf("directory holds %d pages in %d entries, over half full", used, len(s.dirPage))
	}
}

// Property: for each TitanXpL2 geometry of the capacity ladder, the cached
// tail table holds the value a fresh recurrence computes — probed bin by bin
// with one-hot histograms at the table's edges, the transition and seeded
// interior points, and as a whole with an all-ones histogram reaching past
// the table's end.
func TestTailTableMatchesFreshRecurrence(t *testing.T) {
	cfg := TitanXpL2()
	rng := rand.New(rand.NewSource(5))
	for _, size := range mrcTestSizes {
		g := geometryAt(cfg, size)
		c := missCurveAt(g)
		end := int(c.lo) + len(c.tail) // first distance past the table
		probes := []int{0, int(c.lo) - 1, int(c.lo), int(c.lo) + 1, g.sets * g.ways, end - 1, end, end + 1}
		for i := 0; i < 8; i++ {
			probes = append(probes, int(c.lo)+rng.Intn(len(c.tail)))
		}
		for _, d := range probes {
			if d < 0 {
				continue
			}
			oneHot := make([]int32, d+1)
			oneHot[d] = 1
			got, want := c.at(int32(d)), refBinomialMisses(oneHot, g.sets, g.ways)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d KiB (%d×%d) d=%d: table %v != fresh %v", size>>10, g.sets, g.ways, d, got, want)
			}
		}
		ones := make([]int32, end+100)
		for i := range ones {
			ones[i] = 1
		}
		var got float64
		for d := range ones {
			got += c.at(int32(d)) * float64(ones[d])
		}
		if want := refBinomialMisses(ones, g.sets, g.ways); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%d KiB (%d×%d): Σ table %v != fresh Σ %v", size>>10, g.sets, g.ways, got, want)
		}
	}
}

// The tail tables are process-wide state reached from concurrent model
// builds: goroutines racing to first use of a geometry must single-flight
// its build and all read the reference's result. The geometries here are
// used by no other test, so each is cold when the goroutines arrive.
func TestTailTableConcurrentFirstUse(t *testing.T) {
	trace := mrcTestTraces(13, 20_000)["random"]
	sizes := []int{16 << 10, 64 << 10}
	for ways := 2; ways <= 7; ways++ {
		cfg := Config{LineBytes: 64, Ways: ways}
		want := refMRC(cfg, trace, sizes)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := ReuseDistanceMRC(cfg, trace, sizes)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("ways=%d @ %d KiB: %v != reference %v", ways, sizes[i]>>10, got[i], want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
