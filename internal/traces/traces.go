// Package traces generates synthetic per-workload address traces in the two
// block-execution orders the paper contrasts:
//
//   - Hardware order: the GPU's block-oriented scheduler deals thread blocks
//     across SMs in waves, so the L2 observes many block streams interleaved
//     at fine granularity with no ordering relationship between neighbours.
//   - Slate order: persistent workers pull tasks (groups of SLATE_ITERS
//     consecutive blocks) from a queue, so each worker's stream walks
//     consecutive blocks, preserving the locality the kernel author designed.
//
// Feeding these traces to the internal/cache simulator yields the hit-rate
// difference that drives Table III (GS +38% access bandwidth under Slate).
package traces

import (
	"math/bits"
	"math/rand"
	"sync"

	"slate/internal/cache"
)

// BlockPattern describes which cache lines a single thread block touches.
type BlockPattern interface {
	// NumBlocks is the total block count of the (possibly sampled) kernel.
	NumBlocks() int
	// AppendBlock appends the line-granular byte addresses touched by block
	// b, in program order, to dst.
	AppendBlock(dst []uint64, b int) []uint64
}

// sizedPattern is an optional BlockPattern extension reporting how many
// accesses AppendBlock emits per block. Assemble uses it to size trace and
// stream buffers exactly instead of growing them through append; every
// pattern in this package implements it (all emit the same count for each
// block).
type sizedPattern interface {
	BlockPattern
	// AccessesPerBlock is the exact length AppendBlock adds for any block.
	AccessesPerBlock() int
}

// accessesPerBlock returns the per-block access count, via the sizedPattern
// fast path or by probing block 0.
func accessesPerBlock(p BlockPattern) int {
	if sp, ok := p.(sizedPattern); ok {
		return sp.AccessesPerBlock()
	}
	return len(p.AppendBlock(nil, 0))
}

// lineCount is ceil(bytes/lineBytes): the number of addresses a
// line-stepped loop over bytes emits.
func lineCount(bytes, lineBytes int) int {
	if bytes <= 0 || lineBytes <= 0 {
		return 0
	}
	return (bytes + lineBytes - 1) / lineBytes
}

// Streaming models kernels whose blocks each read/write a private contiguous
// chunk (stream triad, BlackScholes, transpose reads). There is no
// inter-block reuse, so ordering barely matters — which is itself a property
// the tests assert.
type Streaming struct {
	Blocks        int
	BytesPerBlock int
	LineBytes     int
	// WriteStride, if nonzero, adds a second strided stream per block
	// (modeling transpose's column writes at stride WriteStride).
	WriteStride int
	WriteBytes  int
	Base        uint64
	WriteBase   uint64
}

// NumBlocks implements BlockPattern.
func (s Streaming) NumBlocks() int { return s.Blocks }

// AccessesPerBlock implements sizedPattern.
func (s Streaming) AccessesPerBlock() int {
	n := lineCount(s.BytesPerBlock, s.LineBytes)
	if s.WriteStride > 0 && s.WriteBytes > 0 {
		n += lineCount(s.WriteBytes, s.LineBytes)
	}
	return n
}

// AppendBlock implements BlockPattern.
func (s Streaming) AppendBlock(dst []uint64, b int) []uint64 {
	start := s.Base + uint64(b)*uint64(s.BytesPerBlock)
	for off := 0; off < s.BytesPerBlock; off += s.LineBytes {
		dst = append(dst, start+uint64(off))
	}
	if s.WriteStride > 0 && s.WriteBytes > 0 {
		wstart := s.WriteBase + uint64(b)*uint64(s.LineBytes)
		for off := 0; off < s.WriteBytes; off += s.LineBytes {
			n := off / s.LineBytes
			dst = append(dst, wstart+uint64(n)*uint64(s.WriteStride))
		}
	}
	return dst
}

// RowSweep models Gaussian elimination's inner kernels: every block reads a
// shared pivot row (strong inter-block reuse) plus its own slice of the
// working row. Consecutive blocks touch adjacent slices, so in-order
// execution turns the pivot row and row boundaries into L2 hits.
type RowSweep struct {
	Blocks       int
	PivotBytes   int // shared row, re-read by every block
	SliceBytes   int // private slice of the working row
	LineBytes    int
	PivotBase    uint64
	RowBase      uint64
	SliceOverlap int // bytes of overlap with the previous block's slice
}

// NumBlocks implements BlockPattern.
func (r RowSweep) NumBlocks() int { return r.Blocks }

// AccessesPerBlock implements sizedPattern.
func (r RowSweep) AccessesPerBlock() int {
	return lineCount(r.PivotBytes, r.LineBytes) + lineCount(r.SliceBytes, r.LineBytes)
}

// AppendBlock implements BlockPattern.
func (r RowSweep) AppendBlock(dst []uint64, b int) []uint64 {
	for off := 0; off < r.PivotBytes; off += r.LineBytes {
		dst = append(dst, r.PivotBase+uint64(off))
	}
	stride := r.SliceBytes - r.SliceOverlap
	if stride < r.LineBytes {
		stride = r.LineBytes
	}
	start := r.RowBase + uint64(b)*uint64(stride)
	for off := 0; off < r.SliceBytes; off += r.LineBytes {
		dst = append(dst, start+uint64(off))
	}
	return dst
}

// Tiled models SGEMM: block (i,j) reads row-panel i of A and column-panel j
// of B. Blocks are laid out row-major in j-then-i order, so consecutive
// blocks share the A panel; panels of B recur with period GridX.
type Tiled struct {
	GridX, GridY int // blocks per row / column
	PanelBytes   int // bytes per A-row-panel and per B-column-panel
	LineBytes    int
	ABase, BBase uint64
}

// NumBlocks implements BlockPattern.
func (t Tiled) NumBlocks() int { return t.GridX * t.GridY }

// AccessesPerBlock implements sizedPattern.
func (t Tiled) AccessesPerBlock() int { return 2 * lineCount(t.PanelBytes, t.LineBytes) }

// AppendBlock implements BlockPattern.
func (t Tiled) AppendBlock(dst []uint64, b int) []uint64 {
	i := b / t.GridX // row index → A panel
	j := b % t.GridX // col index → B panel
	aStart := t.ABase + uint64(i)*uint64(t.PanelBytes)
	bStart := t.BBase + uint64(j)*uint64(t.PanelBytes)
	// The k-loop stages panel chunks through shared memory; each panel is
	// read as its own sequential stream (two concurrent streams at the
	// memory controller, not one interleaved one).
	for off := 0; off < t.PanelBytes; off += t.LineBytes {
		dst = append(dst, aStart+uint64(off))
	}
	for off := 0; off < t.PanelBytes; off += t.LineBytes {
		dst = append(dst, bStart+uint64(off))
	}
	return dst
}

// Random models the quasi-random generator: each block writes a modest
// private region and performs a few scattered table reads. Low volume, low
// reuse.
type Random struct {
	Blocks        int
	BytesPerBlock int
	TableBytes    int
	TableReads    int
	LineBytes     int
	Seed          int64
	Base          uint64
	TableBase     uint64
}

// NumBlocks implements BlockPattern.
func (r Random) NumBlocks() int { return r.Blocks }

// AccessesPerBlock implements sizedPattern.
func (r Random) AccessesPerBlock() int {
	return lineCount(r.BytesPerBlock, r.LineBytes) + r.TableReads
}

// AppendBlock implements BlockPattern.
func (r Random) AppendBlock(dst []uint64, b int) []uint64 {
	return r.blockAppender()(dst, b)
}

// blockAppender returns AppendBlock for a whole expansion. Block b's table
// reads are the draws of a fresh rand.NewSource(r.Seed+b), and seeding one is
// what an RG-shaped expansion costs, once per block. Where Intn is exactly one
// draw — a power-of-two line count no larger than Int31n takes — and the block
// stays inside the draws that read seeded words only, they are computed
// straight from the seed (see skipahead.go); any other shape re-seeds one
// shared source per block, which resets its whole state.
func (r Random) blockAppender() func(dst []uint64, b int) []uint64 {
	lines := r.TableBytes / r.LineBytes
	if lines < 1 {
		lines = 1
	}
	if lines&(lines-1) == 0 && lines <= 1<<30 && r.TableReads <= rngTap {
		t := skipAhead()
		mask := uint64(lines - 1)
		return func(dst []uint64, b int) []uint64 {
			dst = r.appendPrivate(dst, b)
			seed := normSeed(r.Seed + int64(b))
			for k := 0; k < r.TableReads; k++ {
				// Intn of a power of two is Int31() & (n-1), and Int31 is
				// bits 32..62 of one draw.
				line := (t.draw(seed, k) & rngMask) >> 32 & mask
				dst = append(dst, r.TableBase+line*uint64(r.LineBytes))
			}
			return dst
		}
	}
	src := rand.NewSource(0)
	rng := rand.New(src)
	return func(dst []uint64, b int) []uint64 {
		dst = r.appendPrivate(dst, b)
		src.Seed(r.Seed + int64(b))
		for k := 0; k < r.TableReads; k++ {
			dst = append(dst, r.TableBase+uint64(rng.Intn(lines))*uint64(r.LineBytes))
		}
		return dst
	}
}

// appendPrivate appends the lines of block b's private region.
func (r Random) appendPrivate(dst []uint64, b int) []uint64 {
	start := r.Base + uint64(b)*uint64(r.BytesPerBlock)
	for off := 0; off < r.BytesPerBlock; off += r.LineBytes {
		dst = append(dst, start+uint64(off))
	}
	return dst
}

// Order identifies a block-execution order for trace assembly.
type Order int

// Execution orders.
const (
	// HardwareOrder interleaves many block streams pseudo-randomly, modeling
	// the hardware scheduler's wave dispatch.
	HardwareOrder Order = iota
	// SlateOrder interleaves per-worker streams where each worker executes
	// tasks of consecutive blocks in queue order.
	SlateOrder
)

// AssembleConfig controls trace assembly.
type AssembleConfig struct {
	Order Order
	// Workers is the number of concurrent block streams (hardware: resident
	// blocks; Slate: persistent workers).
	Workers int
	// TaskSize is the SLATE_ITERS grouping (Slate order only; >=1).
	TaskSize int
	// Chunk is the number of accesses a stream issues before the L2 sees
	// another stream's accesses; models fine-grained interleaving.
	Chunk int
	// Seed drives the deterministic interleaving shuffle.
	Seed int64
	// MaxAccesses caps the assembled trace length (0 = no cap). Blocks are
	// consumed from the start; patterns here are periodic so a prefix is
	// representative.
	MaxAccesses int
}

// Assemble builds a single interleaved address trace from the pattern under
// the given execution order. The trace belongs to the caller, who may hand it
// back with Release once done with it.
func Assemble(p BlockPattern, cfg AssembleConfig) []uint64 {
	streams, buf, cfg := expand(p, cfg)
	defer Release(buf)
	return interleave(streams, cfg)
}

// AssembleWithRunStats returns what Assemble and streamRunStats return for
// the same arguments from one dealing and one expansion of the pattern — the
// pair a model build needs.
func AssembleWithRunStats(p BlockPattern, cfg AssembleConfig) ([]uint64, RunStats) {
	streams, buf, cfg := expand(p, cfg)
	defer Release(buf)
	return interleave(streams, cfg), runStats(streams)
}

// bufPool recycles the two model-scale buffers of an assembly: the expanded
// streams and the interleaved trace, 8 MB each at the model's default cap.
// Both are filled through append and never read past their length, so a
// recycled one needs no clearing — what is saved is allocating and zeroing
// 16 MB per model build.
var bufPool sync.Pool // of *[]uint64

// getBuf returns an empty buffer of capacity at least n.
func getBuf(n int) []uint64 {
	if b, _ := bufPool.Get().(*[]uint64); b != nil && cap(*b) >= n {
		return (*b)[:0]
	}
	return make([]uint64, 0, n)
}

// Release recycles a trace returned by Assemble or AssembleWithRunStats into
// a later assembly. The caller must not use it afterwards; a trace that is
// never released is simply garbage-collected.
func Release(trace []uint64) {
	if cap(trace) > 0 {
		trace = trace[:0]
		bufPool.Put(&trace)
	}
}

// expand is the one dealing and expansion routine: it normalizes cfg, deals
// the sampled blocks to worker queues under cfg.Order, and expands every
// queue into that worker's access stream. Assemble interleaves the streams,
// streamRunStats measures them. The streams are windows of the returned
// buffer, which the caller releases once it is done with them; the returned
// cfg is the normalized one.
func expand(p BlockPattern, cfg AssembleConfig) ([][]uint64, []uint64, AssembleConfig) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.TaskSize < 1 {
		cfg.TaskSize = 1
	}
	if cfg.Chunk < 1 {
		cfg.Chunk = 8
	}
	// Cap cost by sampling a prefix of blocks, never by truncating the
	// merged trace: per-block access composition must stay representative.
	per := accessesPerBlock(p)
	n := sampleBlocksFor(p, per, cfg.MaxAccesses)
	if n == 0 {
		return nil, nil, cfg
	}
	if cfg.Workers > n {
		cfg.Workers = n
	}

	// Deal blocks to worker queues, preallocated to their final length: the
	// round-robin deal leaves queue sizes within one block of n/Workers.
	queues := make([][]int, cfg.Workers)
	perQueue := n/cfg.Workers + cfg.TaskSize
	for w := range queues {
		queues[w] = make([]int, 0, perQueue)
	}
	switch cfg.Order {
	case HardwareOrder:
		// Wave dispatch with jitter: block start order drifts within a
		// bounded window because block durations vary and SMs re-issue
		// independently. The shuffled order is dealt round-robin, so each
		// worker's stream is strided and neighbour blocks land on different
		// workers at random relative phases — destroying the inter-block
		// locality the kernel author laid out.
		order := boundedWindowShuffle(n, 4*cfg.Workers, cfg.Seed)
		for i, b := range order {
			w := i % cfg.Workers
			queues[w] = append(queues[w], b)
		}
	case SlateOrder:
		// Task pulls: tasks of TaskSize consecutive blocks are claimed
		// round-robin, so each worker walks runs of consecutive blocks.
		task := 0
		for b := 0; b < n; b += cfg.TaskSize {
			w := task % cfg.Workers
			for k := b; k < b+cfg.TaskSize && k < n; k++ {
				queues[w] = append(queues[w], k)
			}
			task++
		}
	}

	// Expand each worker queue into its access stream. The streams are
	// consecutive windows of one buffer sized from the pattern's per-block
	// hint, so append never reallocates for a sizedPattern.
	appendBlock := p.AppendBlock
	if r, ok := p.(Random); ok {
		appendBlock = r.blockAppender() // one seed table or rand source for the whole expansion
	}
	buf := getBuf(n * per)
	streams := make([][]uint64, cfg.Workers)
	for w, q := range queues {
		start := len(buf)
		for _, b := range q {
			buf = appendBlock(buf, b)
		}
		streams[w] = buf[start:]
	}
	return streams, buf, cfg
}

// interleave merges the streams chunk-by-chunk with a deterministic shuffle
// over the set of streams that still have accesses left.
func interleave(streams [][]uint64, cfg AssembleConfig) []uint64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := make([]int, len(streams))
	live := make([]int, 0, len(streams))
	total := 0
	for w, s := range streams {
		if len(s) > 0 {
			live = append(live, w)
		}
		total += len(s)
	}
	out := getBuf(total)
	for len(live) > 0 && len(out) < total {
		i := rng.Intn(len(live))
		w := live[i]
		s := streams[w]
		end := pos[w] + cfg.Chunk
		if end > len(s) {
			end = len(s)
		}
		out = append(out, s[pos[w]:end]...)
		pos[w] = end
		if pos[w] >= len(s) {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}

// sampleBlocksFor returns how many leading blocks of the pattern to use so
// the assembled trace stays within maxAccesses (0 = no cap), given the
// per-block access count. The patterns in this package are periodic, so a
// prefix is representative.
func sampleBlocksFor(p BlockPattern, per, maxAccesses int) int {
	n := p.NumBlocks()
	if maxAccesses <= 0 || n == 0 {
		return n
	}
	if per == 0 {
		return n
	}
	m := maxAccesses / per
	if m < 1 {
		m = 1
	}
	if m < n {
		return m
	}
	return n
}

// hitRate assembles a trace for the pattern under cfg and simulates it
// through a cache with the given geometry, returning the L2 hit rate.
func hitRate(p BlockPattern, acfg AssembleConfig, ccfg cache.Config) float64 {
	trace := Assemble(p, acfg)
	st := cache.SimulateTrace(ccfg, trace)
	return st.HitRate()
}

// boundedWindowShuffle returns a permutation of 0..n-1 where element i lands
// within roughly ±window of position i: a Fisher–Yates restricted to a
// sliding window, modeling hardware dispatch jitter.
func boundedWindowShuffle(n, window int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if window <= 1 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		hi := i + window
		if hi > n {
			hi = n
		}
		j := i + rng.Intn(hi-i)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// RunStats summarizes the sequential locality of per-worker access streams.
// MeanRunBytes is the average length, in bytes, of maximal runs of
// line-consecutive addresses within a single worker's stream. Long runs let
// the DRAM controller keep rows open; the memory-system model maps this to
// achievable bandwidth efficiency.
type RunStats struct {
	Runs         int
	MeanRunBytes float64
}

// streamRunStats computes RunStats for the pattern under the given execution
// order without interleaving (runs are a per-stream property).
func streamRunStats(p BlockPattern, cfg AssembleConfig) RunStats {
	streams, buf, _ := expand(p, cfg)
	defer Release(buf)
	return runStats(streams)
}

// runStatsLineBytes is the line size run statistics are measured in: the
// 64-byte L2 line every device preset and every workload pattern uses. It is
// a constant and not the pattern's LineBytes because a BlockPattern emits
// byte addresses and does not expose the step it generated them at.
const runStatsLineBytes = 64

// seenSet is runStats' open-addressed set of lines. A slot belongs to the
// current worker only while its stamp equals that worker's epoch, so moving
// to the next worker — or to the next call — empties the set without
// clearing it. Epochs only grow, so whatever a slot holds from an earlier
// worker or call is stale; the stamps are cleared only when the epoch wraps.
type seenSet struct {
	lines  []uint64
	stamps []uint32
	epoch  uint32
}

// seenPool recycles seen-sets across model builds: BS in Slate order needs
// 512k slots, 6 MB, that would otherwise be allocated and zeroed per build.
var seenPool = sync.Pool{New: func() any { return new(seenSet) }}

// resize makes the set's window size slots, reallocating only if its
// capacity is smaller.
func (s *seenSet) resize(size int) {
	if cap(s.stamps) < size {
		s.lines = make([]uint64, size)
		s.stamps = make([]uint32, size)
		s.epoch = 0
		return
	}
	s.lines = s.lines[:size]
	s.stamps = s.stamps[:size]
}

// next returns a fresh epoch: no slot is stamped with it.
func (s *seenSet) next() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamps[:cap(s.stamps)])
		s.epoch = 1
	}
	return s.epoch
}

// runStats measures runs over each worker's first-touch lines only: repeat
// accesses (hot shared data like GS's pivot row) are served by the L2 and
// neither extend nor break a DRAM access run.
func runStats(streams [][]uint64) RunStats {
	set := seenPool.Get().(*seenSet)
	defer seenPool.Put(set)
	return set.runStats(streams)
}

// runStats measures the streams through this seen-set.
func (set *seenSet) runStats(streams [][]uint64) RunStats {
	longest := 0
	for _, s := range streams {
		if len(s) > longest {
			longest = len(s)
		}
	}
	// One seen-set serves every worker, sized for a <=50% load factor on the
	// longest stream.
	size := 16
	for size < 2*longest {
		size <<= 1
	}
	mask := uint64(size - 1)
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	set.resize(size)
	lines, stamps := set.lines, set.stamps

	var runs, coldLines int
	for _, s := range streams {
		epoch := set.next()
		havePrev := false
		var prev uint64
		for _, a := range s {
			ln := a / runStatsLineBytes
			h := (ln * 0x9E3779B97F4A7C15) >> shift
			for stamps[h] == epoch && lines[h] != ln {
				h = (h + 1) & mask
			}
			if stamps[h] == epoch {
				continue // already touched by this worker
			}
			stamps[h], lines[h] = epoch, ln
			coldLines++
			if !havePrev || (ln != prev && ln != prev+1) {
				runs++
			}
			prev = ln
			havePrev = true
		}
	}
	if runs == 0 {
		return RunStats{}
	}
	return RunStats{Runs: runs, MeanRunBytes: float64(uint64(coldLines)*runStatsLineBytes) / float64(runs)}
}
