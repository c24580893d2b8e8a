// Package fault is Slate's seeded fault-injection framework: a deterministic
// injector that perturbs the client/daemon stack at its three trust
// boundaries — the transport (delayed, reset, or truncated frames), device
// memory allocation (spurious OOM), and runtime compilation (transient
// compiler failures). Every decision is a pure function of (seed, site,
// per-site counter), so a given seed reproduces the exact same failure
// sequence on every run — the property chaos tests and the
// `slatebench -exp faults` driver rely on to make crash reports replayable.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sites name the injection points. Each site draws from its own counter
// stream, so adding faults at one site never shifts the decisions at
// another.
const (
	siteReadDelay     = "conn.read.delay"
	siteWriteReset    = "conn.write.reset"
	siteWriteTruncate = "conn.write.truncate"
	siteAlloc         = "registry.alloc"
	siteCompile       = "nvrtc.compile"
)

// Config sets per-site fault probabilities in [0,1]. Zero values disable a
// site entirely.
type Config struct {
	// Seed selects the deterministic decision stream.
	Seed int64
	// ReadDelayProb delays a transport read by up to DelayMax.
	ReadDelayProb float64
	// DelayMax bounds injected read delays (default 2ms).
	DelayMax time.Duration
	// WriteResetProb resets the connection instead of writing a frame.
	WriteResetProb float64
	// WriteTruncateProb writes half a frame and then resets — the torn-write
	// case a crashing client produces.
	WriteTruncateProb float64
	// AllocFailProb makes BufferRegistry.Create fail with a spurious OOM.
	AllocFailProb float64
	// CompileFailProb makes the runtime compiler fail transiently.
	CompileFailProb float64
}

// Event is one fired fault: which site, the site-local decision index, and
// what happened.
type Event struct {
	Site string
	N    uint64
	Kind string
}

func (e Event) String() string { return fmt.Sprintf("%s#%d:%s", e.Site, e.N, e.Kind) }

// Injector draws deterministic fault decisions and records every fault it
// fires. Safe for concurrent use; determinism of the *sequence* additionally
// requires that calls to each site arrive in a deterministic order (e.g. a
// single-threaded chaos script).
type Injector struct {
	cfg Config

	mu       sync.Mutex
	counters map[string]uint64
	events   []Event
}

// New builds an injector for the given config.
func New(cfg Config) *Injector {
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg, counters: map[string]uint64{}}
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer whose
// output stream for sequential inputs passes statistical tests, used here so
// decision n at a site is a pure function of (seed, site, n).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(site string) uint64 {
	// FNV-1a over the site name; stable across runs and Go versions.
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// roll returns the site's next decision value in [0,1) and its index.
func (i *Injector) roll(site string) (float64, uint64) {
	i.mu.Lock()
	n := i.counters[site]
	i.counters[site] = n + 1
	i.mu.Unlock()
	bits := splitmix64(uint64(i.cfg.Seed) ^ siteHash(site) ^ (n * 0x2545f4914f6cdd1d))
	return float64(bits>>11) / (1 << 53), n
}

// fire decides whether site's next event fires at probability p, logging it
// as kind when it does.
func (i *Injector) fire(site string, p float64, kind string) bool {
	if p <= 0 {
		return false
	}
	v, n := i.roll(site)
	if v >= p {
		return false
	}
	i.mu.Lock()
	i.events = append(i.events, Event{Site: site, N: n, Kind: kind})
	i.mu.Unlock()
	return true
}

// Events returns a copy of every fault fired so far, in firing order.
func (i *Injector) Events() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.events...)
}

// Trace renders the fired faults as one line per event, sorted by site and
// then by the site-local index — the replay fingerprint two same-seed runs
// must agree on. Each site's sequence is a pure function of (seed, site, n);
// the interleaving across sites is not (goroutines on different connections
// reach different sites in either order), so the trace leaves it out.
func (i *Injector) Trace() string {
	evs := i.Events()
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].Site != evs[b].Site {
			return evs[a].Site < evs[b].Site
		}
		return evs[a].N < evs[b].N
	})
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// AllocHook returns the registry hook: it fails allocation with a spurious
// OOM at the configured probability. Wire it to
// ipc.BufferRegistry.AllocHook.
func (i *Injector) AllocHook() func(size int64) error {
	return func(size int64) error {
		if i.fire(siteAlloc, i.cfg.AllocFailProb, "oom") {
			return fmt.Errorf("fault: injected device OOM for %d-byte allocation", size)
		}
		return nil
	}
}

// CompileHook returns the compiler hook: it fails compilation transiently at
// the configured probability. Wire it to nvrtc.Compiler.FailHook.
func (i *Injector) CompileHook() func(src string) error {
	return func(string) error {
		if i.fire(siteCompile, i.cfg.CompileFailProb, "compile-fail") {
			return fmt.Errorf("fault: injected transient compiler failure")
		}
		return nil
	}
}
