package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4} } // 16 sets

func TestGeometry(t *testing.T) {
	c := newCache(small())
	if c.sets != 16 || c.ways != 4 || c.cfg.LineBytes != 64 {
		t.Fatalf("geometry = %d sets x %d ways x %dB", c.sets, c.ways, c.cfg.LineBytes)
	}
	if c.sets*c.ways*c.cfg.LineBytes != 4096 {
		t.Fatalf("SizeBytes = %d", c.sets*c.ways*c.cfg.LineBytes)
	}
}

func TestTitanXpL2Geometry(t *testing.T) {
	c := newCache(TitanXpL2())
	if c.sets*c.ways*c.cfg.LineBytes != 3<<20 {
		t.Fatalf("L2 size = %d, want %d", c.sets*c.ways*c.cfg.LineBytes, 3<<20)
	}
	if c.cfg.LineBytes != 64 {
		t.Fatalf("L2 line = %d", c.cfg.LineBytes)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 4096, LineBytes: 48, Ways: 4}, // non power-of-two line
		{SizeBytes: 100, LineBytes: 64, Ways: 4},  // size not multiple of line
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid geometry did not panic", i)
				}
			}()
			newCache(cfg)
		}()
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := newCache(small())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("repeat access missed")
	}
	if !c.Access(0x1000 + 63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1000 + 64) {
		t.Fatal("next-line access hit cold")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(small())
	// Collect 5 distinct lines that map to the same set under the hashed
	// index (probing keeps the test independent of the hash function).
	target := c.setIndex(0)
	addrs := []uint64{0}
	for line := uint64(1); len(addrs) < 5; line++ {
		if c.setIndex(line) == target {
			addrs = append(addrs, line*uint64(c.cfg.LineBytes))
		}
	}
	for _, a := range addrs[:4] { // fill the 4-way set
		c.Access(a)
	}
	// Touch line 0 to make addrs[1] the LRU.
	c.Access(addrs[0])
	// Install a 5th line: must evict addrs[1].
	c.Access(addrs[4])
	if !c.Access(addrs[0]) {
		t.Fatal("recently used line was evicted")
	}
	if c.Access(addrs[1]) {
		t.Fatal("LRU line survived eviction")
	}
	if c.Stats().Evictions < 1 {
		t.Fatal("no evictions recorded")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// "Working set exactly = capacity ⇒ only cold misses" is a capacity
	// property of LRU: it holds exactly only without set conflicts, so it is
	// asserted on fully-associative geometry. The hashed set-associative
	// mapping intentionally trades it for stride robustness (see setIndex);
	// conflict misses for that case are bounded below.
	c := newCache(Config{SizeBytes: 4096, LineBytes: 64, Ways: 0})
	lines := c.sets * c.ways
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * c.cfg.LineBytes))
		}
	}
	st := c.Stats()
	if st.Misses != uint64(lines) {
		t.Fatalf("misses = %d, want only %d cold misses", st.Misses, lines)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}

	// Set-associative with hashed indexing: a capacity-fitting working set
	// incurs some conflict misses (sets overflow binomially), but far fewer
	// than a thrashing trace — the second pass must still be mostly hits.
	sa := newCache(small())
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			sa.Access(uint64(i * 64))
		}
	}
	cold := uint64(lines)
	if m := sa.Stats().Misses; m < cold || m > 2*cold {
		t.Fatalf("hashed set-assoc misses = %d, want within [%d, %d]", m, cold, 2*cold)
	}
}

func TestStreamingThrashes(t *testing.T) {
	c := newCache(small())
	// Working set = 4x capacity, sequential, repeated: LRU thrashes fully.
	lines := 4 * c.sets * c.ways
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * c.cfg.LineBytes))
		}
	}
	if hr := c.Stats().HitRate(); hr != 0 {
		t.Fatalf("sequential over-capacity scan hit rate = %v, want 0", hr)
	}
}

func TestFullyAssociative(t *testing.T) {
	c := newCache(Config{SizeBytes: 1024, LineBytes: 64, Ways: 0})
	if c.sets != 1 || c.ways != 16 {
		t.Fatalf("fully associative geometry = %d sets x %d ways", c.sets, c.ways)
	}
	// Any 16 distinct lines should coexist regardless of address bits.
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 30))
		c.Access(addrs[i])
	}
	for _, a := range addrs {
		if !c.Access(a) {
			// could collide in line address; regenerate is overkill — lines
			// are distinct with overwhelming probability at this seed.
			t.Fatalf("line %#x evicted in fully associative cache within capacity", a)
		}
	}
}

func TestMissRatioCurveMonotonicOnLoop(t *testing.T) {
	// A looped sequential trace has a miss ratio that is nonincreasing in
	// capacity (classic stack property holds for LRU with fixed geometry;
	// we use fully associative to guarantee inclusion).
	trace := make([]uint64, 0, 4096)
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 1024; i++ {
			trace = append(trace, uint64(i*64))
		}
	}
	sizes := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	mrc := missRatioCurve(Config{LineBytes: 64, Ways: 0}, trace, sizes)
	for i := 1; i < len(mrc); i++ {
		if mrc[i] > mrc[i-1]+1e-12 {
			t.Fatalf("MRC not nonincreasing: %v", mrc)
		}
	}
	if mrc[len(mrc)-1] >= mrc[0] {
		t.Fatalf("MRC flat where reuse exists: %v", mrc)
	}
}

// Property: hits + misses == accesses, and hit rate is in [0,1], for random
// traces on random valid geometries.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(seed int64, raw []uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		ways := 1 << rng.Intn(4)
		lineB := 32 << rng.Intn(3)
		sets := 1 << rng.Intn(6)
		c := newCache(Config{SizeBytes: sets * ways * lineB, LineBytes: lineB, Ways: ways})
		for _, a := range raw {
			c.Access(uint64(a))
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		hr := st.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property (LRU inclusion): for fully associative LRU, a larger cache never
// misses on an access that a smaller cache hits.
func TestPropertyLRUInclusion(t *testing.T) {
	f := func(raw []uint16) bool {
		smallC := newCache(Config{SizeBytes: 1024, LineBytes: 64, Ways: 0})
		bigC := newCache(Config{SizeBytes: 4096, LineBytes: 64, Ways: 0})
		for _, a := range raw {
			hs := smallC.Access(uint64(a) * 64)
			hb := bigC.Access(uint64(a) * 64)
			if hs && !hb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := newCache(TitanXpL2())
	c.Access(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	c := newCache(TitanXpL2())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

// missRatioCurve evaluates the trace's miss ratio at each capacity in
// sizesBytes (geometry otherwise as cfg) by running one full set-associative
// simulation per capacity. It is the brute-force validation oracle for the
// single-pass ReuseDistanceMRC engine, which the model-build hot path uses
// instead; the property tests in mrc_test.go bound the deviation between
// the two.
func missRatioCurve(cfg Config, trace []uint64, sizesBytes []int) []float64 {
	out := make([]float64, len(sizesBytes))
	for i, sz := range sizesBytes {
		c := cfg
		c.SizeBytes = sz
		c.Sets = 0
		st := SimulateTrace(c, trace)
		out[i] = st.MissRate()
	}
	return out
}
