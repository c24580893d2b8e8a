// Package nvrtc mocks the NVIDIA Runtime Compiler the Slate daemon invokes
// after code injection (§IV-B): it validates a transformed translation
// unit, extracts its kernel entry points, and memoizes compiled images so a
// translation unit is injected and compiled once and served from cache on
// every later launch — the behaviour behind Fig. 6's one-time 1.5%
// injection/compilation cost.
//
// The cache has two entrances onto one bounded table. CompileSource is the
// daemon's: it is keyed on the raw user source plus the injection options, so
// a hit costs one map lookup and neither lexes nor injects anything. Compile
// takes an already transformed unit and is keyed on that text. Keys are the
// strings themselves (no hash that could collide), only successes are
// stored, concurrent misses on one key compile once, and the table holds at
// most cacheCap images, evicting the oldest.
package nvrtc

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"slate/internal/inject"
)

// Compiled is one compiled kernel image.
type Compiled struct {
	// Entries lists the extern "C" __global__ entry points.
	Entries []string
	// Hash is FNV-64a of the compiled (transformed) text. Informational:
	// the cache is keyed on the text itself, never on this.
	Hash uint64
	// Log carries compiler diagnostics.
	Log string
}

// HasEntry reports whether the image exports the given kernel.
func (c *Compiled) HasEntry(name string) bool {
	for _, e := range c.Entries {
		if e == name {
			return true
		}
	}
	return false
}

// cacheCap bounds the image table. Keys are client-supplied source text held
// in memory, so the table must not grow with the number of distinct units a
// daemon has ever seen; a unit evicted here is recompiled on its next launch.
const cacheCap = 512

// unitKey identifies one cached image: the text handed in, and for raw user
// source the canonical injection options too (TaskSize is baked into the
// generated code, so the same text under two task sizes is two images).
type unitKey struct {
	text string
	raw  bool
	opt  inject.Options
}

// unit is one table slot. While its compile is in flight img and err are
// unset and done is open; later arrivals on the key wait on done instead of
// compiling again.
type unit struct {
	img  *Compiled
	err  error
	done chan struct{}
}

// Compiler validates and caches translation units. Safe for concurrent use.
type Compiler struct {
	mu    sync.Mutex
	units map[unitKey]*unit
	// fifo holds the keys of the stored images in insertion order; once it
	// is cacheCap long it is a ring and next is its oldest slot.
	fifo []unitKey
	next int

	// FailHook, when set, runs on every cache miss before compilation, on
	// the transformed text; a non-nil return fails the compile transiently
	// without poisoning the cache (fault injection).
	FailHook func(src string) error

	// compiles and cacheHits are counters for the overhead analysis, read
	// through Stats.
	compiles  int
	cacheHits int
}

// New constructs an empty-cache compiler.
func New() *Compiler {
	return &Compiler{units: map[unitKey]*unit{}}
}

// Compile validates an already transformed translation unit and returns its
// compiled image, serving repeats from the cache.
func (c *Compiler) Compile(src string) (*Compiled, error) {
	return c.cached(unitKey{text: src})
}

// CompileSource injects raw user source under opt, compiles the result and
// returns the image, serving repeats of the same (text, options) pair from
// the cache without lexing anything. An injection error, a FailHook failure
// and a compile error are all returned uncached, so the next call retries.
func (c *Compiler) CompileSource(raw string, opt inject.Options) (*Compiled, error) {
	return c.cached(unitKey{text: raw, raw: true, opt: opt.Canonical()})
}

// cached returns k's image, building it on a miss. Arrivals during another
// caller's build of the same key share that build's outcome: a success
// counts as a cache hit for them, a failure is theirs too.
func (c *Compiler) cached(k unitKey) (*Compiled, error) {
	c.mu.Lock()
	if u, ok := c.units[k]; ok {
		if u.img == nil {
			c.mu.Unlock()
			<-u.done
			if u.err != nil {
				return nil, u.err
			}
			c.mu.Lock()
		}
		c.cacheHits++
		c.mu.Unlock()
		return u.img, nil
	}
	u := &unit{done: make(chan struct{})}
	c.units[k] = u
	c.mu.Unlock()

	img, err := c.build(k)

	c.mu.Lock()
	if err != nil {
		u.err = err
		delete(c.units, k)
	} else {
		u.img = img
		c.compiles++
		c.storeLocked(k)
	}
	c.mu.Unlock()
	close(u.done)
	return img, err
}

// storeLocked records k as the newest stored image, evicting the oldest when
// the table is full. Caller holds c.mu.
func (c *Compiler) storeLocked(k unitKey) {
	if len(c.fifo) < cacheCap {
		c.fifo = append(c.fifo, k)
		return
	}
	delete(c.units, c.fifo[c.next])
	c.fifo[c.next] = k
	c.next = (c.next + 1) % cacheCap
}

// build is the miss path: injection for raw source, the fault hook, then
// compilation.
func (c *Compiler) build(k unitKey) (*Compiled, error) {
	src := k.text
	if k.raw {
		var err error
		if src, err = inject.Transform(k.text, k.opt); err != nil {
			return nil, err
		}
	}
	if c.FailHook != nil {
		if err := c.FailHook(src); err != nil {
			return nil, fmt.Errorf("nvrtc: %w", err)
		}
	}
	return compile(src)
}

// compile performs the validation a real NVRTC invocation would fail on:
// lexical integrity, balanced braces, the Slate device runtime, and at
// least one extern "C" entry point.
func compile(src string) (*Compiled, error) {
	if !strings.Contains(src, "slateIdx") || !strings.Contains(src, "slate_get_smid") {
		return nil, fmt.Errorf("nvrtc: source lacks the Slate device runtime; was it injected?")
	}
	toks := inject.Lex(src)
	depth := 0
	for _, t := range toks {
		if t.Kind != inject.TokPunct {
			continue
		}
		switch t.Text {
		case "{":
			depth++
		case "}":
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("nvrtc: line %d: unbalanced '}'", t.Line)
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("nvrtc: unbalanced braces (%+d at EOF)", depth)
	}
	kernels, err := inject.FindKernelsIn(toks)
	if err != nil {
		return nil, fmt.Errorf("nvrtc: %w", err)
	}
	var entries []string
	for _, k := range kernels {
		if strings.HasPrefix(k.Name, "slate_") {
			entries = append(entries, k.Name)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("nvrtc: no slate_* entry points; injection incomplete")
	}
	h := fnv.New64a()
	h.Write([]byte(src))
	return &Compiled{
		Entries: entries,
		Hash:    h.Sum64(),
		Log:     fmt.Sprintf("nvrtc: compiled %d entry point(s)", len(entries)),
	}, nil
}

// Stats returns (compiles, cacheHits).
func (c *Compiler) Stats() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compiles, c.cacheHits
}
