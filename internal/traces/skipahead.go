package traces

import (
	"math/rand"
	"sync"
)

// Skip-ahead seeding for math/rand's seeded source.
//
// rand.NewSource's generator — frozen by the Go 1 compatibility promise, which
// is why math/rand/v2 exists — is an additive lagged-Fibonacci register of
// rngLen words. Seed(s) fills it from the Lehmer sequence x ← 48271·x mod
// (2³¹−1) started at s: 20 outputs are discarded, then word i is outputs
// 21+3i, 22+3i and 23+3i shifted together and XORed with a fixed constant
// (the unexported rngCooked[i]) — 1 841 sequential steps. Draw j then returns
// word[333−j] + word[606−j] and overwrites word[333−j]; for j < rngTap neither
// operand has been overwritten yet, so the first 273 draws read seeded words
// only.
//
// The Lehmer sequence is multiplicative: output k is 48271^k·s mod (2³¹−1).
// With 48271^(21+3i) tabulated, a seeded word is three modular multiplies from
// the seed, and a block that draws 8 numbers pays 48 of them in place of the
// 1 841 steps. Every value is the one Seed and Uint64 compute, bit for bit
// (TestSkipAheadMatchesMathRand); nothing is approximated.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// seedTable is what skip-ahead needs of the seeding procedure.
type seedTable struct {
	pow    [rngLen]uint64 // lehmerA^(21+3i) mod lehmerM
	cooked [rngLen]int64  // math/rand's rngCooked[i]
}

// skipAhead returns the table, built on first use: a process that never
// expands a Random pattern never pays for it.
var skipAhead = sync.OnceValue(func() *seedTable {
	t := new(seedTable)
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % lehmerM
	}
	const a3 = lehmerA * lehmerA * lehmerA % lehmerM
	for i := range t.pow {
		t.pow[i] = x
		x = x * a3 % lehmerM
	}

	// rngCooked is unexported, so recover it from the first rngLen outputs of
	// one seeded source by running the register's recurrence backwards. Draw
	// j adds words (333−j) mod rngLen and 606−j and stores the sum, its
	// output, in the former. From draw rngTap on, the latter holds the output
	// of draw j−rngTap, which gives the seeded value of every word outside
	// [61, 333]; below rngTap both operands are seeded and the upper one is
	// by then known.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var out, word [rngLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	for j := rngTap; j < rngLen; j++ {
		word[(2*rngLen-rngTap-1-j)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		word[rngLen-rngTap-1-j] = out[j] - word[rngLen-1-j]
	}
	for i := range word {
		t.cooked[i] = word[i] ^ t.word(probe, i) // t.cooked[i] is still 0 here
	}
	return t
})

// normSeed maps a seed onto the Lehmer state Seed starts from.
func normSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// word returns what Seed stores in register word i for the normalized seed.
// The shifts overflow 64 bits exactly as Seed's int64 shifts do.
func (t *seedTable) word(seed uint64, i int) int64 {
	x1 := t.pow[i] * seed % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return int64(x1<<40^x2<<20^x3) ^ t.cooked[i]
}

// draw returns the j-th Uint64 (from 0; j < rngTap) of a source seeded with
// the normalized seed.
func (t *seedTable) draw(seed uint64, j int) uint64 {
	return uint64(t.word(seed, rngLen-rngTap-1-j) + t.word(seed, rngLen-1-j))
}
