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
// spec being immutable once launched (Launch already caches its block count
// and shape). IDs count up and are never reused, so clearing the ID table
// with the memo cannot make a live handle alias a new spec.
type rateMemo struct {
	// index maps an encoded key to the offset of its first kernel's snapshot
	// in vals; the entry spans one snapshot per running kernel.
	index map[string]int
	vals  []rateSnap
	// key is the scratch the current input is encoded into; a lookup with
	// string(key) does not allocate, only an insert does.
	key []byte

	specIDs    map[*kern.Spec]uint64
	nextSpecID uint64

	// solved and reused count misses and hits.
	solved, reused uint64
}

// specID returns spec's ID, assigning the next one on first sight.
func (m *rateMemo) specID(spec *kern.Spec) uint64 {
	if id, ok := m.specIDs[spec]; ok {
		return id
	}
	if m.specIDs == nil {
		m.specIDs = make(map[*kern.Spec]uint64)
	}
	m.nextSpecID++
	m.specIDs[spec] = m.nextSpecID
	return m.nextSpecID
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
		clear(m.specIDs)
		m.vals = m.vals[:0]
	}
	if m.index == nil {
		m.index = make(map[string]int)
	}
	m.index[string(m.key)] = len(m.vals)
	m.vals = append(m.vals, snaps...)
}
