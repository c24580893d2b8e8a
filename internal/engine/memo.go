package engine

import (
	"encoding/binary"
	"math"

	"slate/internal/kern"
)

// rateMemoCap bounds the entries one engine's rate memo holds. A whole Fig. 7
// sweep meets 257 distinct configurations across all its engines; the bound
// only matters for an engine that lives through many distinct kernel sets.
const rateMemoCap = 4096

// rateMemo maps a rate-fixpoint input to its output, per engine. The static
// pass and the fixpoint iterations read, for each running kernel in
// running-set order, only its spec, mode, task size, SM allocation and active
// workers, plus the engine's Dev and Model (fixed for its life) and corun
// (which follows from the allocations). The key is exactly that list, so a
// hit returns the snapshots a fresh solve would compute, bit for bit.
//
// Specs are keyed by a per-engine ID assigned at Launch, which relies on a
// spec being immutable once launched. The same rule lets the ID's entry keep
// what Launch derives from the spec (specFacts), so a spec is validated and
// fitted to an SM once, not on every launch. IDs count up and are never
// reused, so clearing the spec table with the memo cannot make a live handle
// alias a new spec.
type rateMemo struct {
	// index maps an encoded key to the offset of its first kernel's snapshot
	// in vals; the entry spans one snapshot per running kernel.
	index map[string]int
	vals  []rateSnap
	// key is the scratch the current input is encoded into; a lookup with
	// string(key) does not allocate, only an insert does.
	key []byte

	specs      map[*kern.Spec]specFacts
	nextSpecID uint64

	// solved and reused count misses and hits.
	solved, reused uint64
}

// specFacts is what Launch derives from a valid spec that fits on an SM: its
// memo ID, block count, resident blocks per SM and warps per block.
type specFacts struct {
	id                                 uint64
	numBlocks, resident, warpsPerBlock float64
}

// addSpec assigns spec the next ID and records its facts, given the blocks
// of its shape resident on one SM.
func (m *rateMemo) addSpec(spec *kern.Spec, resident int) specFacts {
	if m.specs == nil {
		m.specs = make(map[*kern.Spec]specFacts)
	}
	m.nextSpecID++
	f := specFacts{
		id:            m.nextSpecID,
		numBlocks:     float64(spec.NumBlocks()),
		resident:      float64(resident),
		warpsPerBlock: float64(spec.Shape().Warps()),
	}
	m.specs[spec] = f
	return f
}

// encode writes the key of the running set at the given allocations and
// active-worker counts into m.key.
func (m *rateMemo) encode(running []*Handle, alloc, active []float64) {
	k := m.key[:0]
	for i, h := range running {
		k = binary.LittleEndian.AppendUint64(k, h.specID)
		k = append(k, byte(h.opts.Mode))
		k = binary.LittleEndian.AppendUint64(k, uint64(h.opts.TaskSize))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(alloc[i]))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(active[i]))
	}
	m.key = k
}

// lookup returns the snapshots stored under m.key, or nil.
func (m *rateMemo) lookup(n int) []rateSnap {
	off, ok := m.index[string(m.key)]
	if !ok {
		return nil
	}
	m.reused++
	return m.vals[off : off+n]
}

// insert stores snaps under m.key, first clearing the memo and the spec ID
// table when the memo is full.
func (m *rateMemo) insert(snaps []rateSnap) {
	m.solved++
	if len(m.index) >= rateMemoCap {
		clear(m.index)
		clear(m.specs)
		m.vals = m.vals[:0]
	}
	if m.index == nil {
		m.index = make(map[string]int)
	}
	m.index[string(m.key)] = len(m.vals)
	m.vals = append(m.vals, snaps...)
}
