// Package cache implements a set-associative cache simulator with LRU
// replacement. The GPU model uses it to derive L2 hit rates for workload
// address traces under different block-scheduling orders: the hardware
// scheduler scatters thread blocks across SMs (interleaving their access
// streams), while Slate's persistent workers drain blocks in queue order,
// preserving the locality the kernel author designed. The difference in
// simulated hit rate is the mechanism behind Table III's bandwidth gain.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity. Must equal Sets*Ways*LineBytes if
	// Sets is nonzero; if Sets is zero it is derived from the other fields.
	SizeBytes int
	// LineBytes is the cache line (sector) size. Must be a power of two.
	LineBytes int
	// Ways is the associativity. Ways <= 0 selects fully associative.
	Ways int
	// Sets is the number of sets; zero derives it from SizeBytes/(Ways*LineBytes).
	Sets int
}

// TitanXpL2 returns the geometry used for the GP102 L2 model: 3 MiB, 64 B
// lines, 16-way. (The true GP102 slice layout is undocumented; with the
// hashed set indexing below, hit-rate behaviour is insensitive to the exact
// associativity at this scale.)
func TitanXpL2() Config {
	return Config{SizeBytes: 3 << 20, LineBytes: 64, Ways: 16}
}

func (c Config) validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes %d must be a positive power of two", c.LineBytes)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: SizeBytes %d must be a positive multiple of LineBytes %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	ways := c.Ways
	if ways <= 0 {
		ways = lines
	}
	if lines%ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, ways)
	}
	sets := lines / ways
	if c.Sets != 0 && c.Sets != sets {
		return fmt.Errorf("cache: Sets %d inconsistent with derived %d", c.Sets, sets)
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissRate returns 1 - HitRate for a touched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	// lastUse is a per-cache global counter value; larger is more recent.
	lastUse uint64
}

// lruCache is a set-associative LRU cache simulator. It tracks tags only (no
// data payloads) — sufficient for hit-rate and traffic modeling.
type lruCache struct {
	cfg       Config
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	lines     []line // sets*ways, set-major
	tick      uint64
	stats     Stats
}

// newCache constructs a cache simulator. It panics on invalid geometry (geometries
// are static configuration, not runtime input).
func newCache(cfg Config) *lruCache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	ways := cfg.Ways
	if ways <= 0 {
		ways = linesTotal
	}
	sets := linesTotal / ways
	if sets&(sets-1) != 0 {
		// Non-power-of-two set counts are legal but slow; we require a
		// power of two so the index is a mask. Round down.
		sets = 1 << (bits.Len(uint(sets)) - 1)
		ways = linesTotal / sets
	}
	return &lruCache{
		cfg:       cfg,
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		lines:     make([]line, sets*ways),
	}
}

// Stats returns a copy of the accumulated counters.
func (c *lruCache) Stats() Stats { return c.stats }

// setIndex maps a line address to its set with a splitmix64-style mixed
// hash. GPU L2s hash the set/slice mapping (microbenchmarking consistently
// finds non-modulo interleaving) precisely so that the power-of-two strides
// ubiquitous in GPU workloads — matrix panels, tiled buffers — do not alias
// onto a handful of sets. Pure modulo indexing made this simulator report
// large conflict-miss artifacts on such traces, and weaker XOR folds still
// aliased when hundreds of panel streams advance in lockstep; a full mix is
// what makes the geometry behave like the uniform-mapping model the
// simulator's associativity assumptions (and the one-pass MRC's binomial
// conflict correction) rely on. Lines store the full line address as their
// tag, so identity never depends on the hash being invertible.
func (c *lruCache) setIndex(lineAddr uint64) int {
	h := lineAddr
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return int(h & c.setMask)
}

// Access simulates one access to byte address addr and reports whether it
// hit. A miss installs the line, evicting the LRU way if the set is full.
func (c *lruCache) Access(addr uint64) bool {
	c.tick++
	c.stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.setIndex(lineAddr)
	tag := lineAddr // full line address: unique regardless of the set hash
	base := set * c.ways

	victim := -1
	haveInvalid := false
	lru := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.lastUse = c.tick
			c.stats.Hits++
			return true
		}
		if !l.valid {
			if !haveInvalid {
				victim = w
				haveInvalid = true
			}
		} else if !haveInvalid && l.lastUse < lru {
			lru = l.lastUse
			victim = w
		}
	}
	c.stats.Misses++
	v := &c.lines[base+victim]
	if v.valid {
		c.stats.Evictions++
	}
	*v = line{tag: tag, valid: true, lastUse: c.tick}
	return false
}

// SimulateTrace runs a full address trace through a fresh cache of the given
// geometry and returns the stats. Convenience for miss-ratio-curve work.
func SimulateTrace(cfg Config, trace []uint64) Stats {
	c := newCache(cfg)
	for _, a := range trace {
		c.Access(a)
	}
	return c.Stats()
}
