// Package harness regenerates every table and figure of the paper's
// evaluation (§V) on the simulated Titan Xp: Fig. 1 (stream saturation),
// Table II (workload profiles), Table III (GS under CUDA vs Slate),
// Table IV (the BS-RG pair under MPS vs Slate), Table V (overhead
// inventory), Fig. 5 (task-size sweep), Fig. 6 (solo application time
// breakdown), and Fig. 7 (all 15 pairings under CUDA, MPS, and Slate).
//
// Each experiment returns a typed result with a Render method producing the
// text table the paper's figure/table reports, plus CSV for plotting.
package harness

import (
	"fmt"
	"strings"
	"sync"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// Config parameterizes the harness.
type Config struct {
	// Dev is the device model; nil selects the Titan Xp.
	Dev *device.Device
	// LoopSeconds is the solo-kernel loop target of §V-A3. The paper used
	// ~30 s; the default of 3 s produces identical normalized results in a
	// tenth of the events.
	LoopSeconds float64
	// Parallel bounds the worker pool running independent experiment cells
	// (pairings × schedulers, sweep points, table rows). 0 or 1 runs
	// serially. Output is byte-identical at every setting: cells write
	// index-assigned slots and aggregates are computed in a serial-order
	// post-pass, never from arrival order.
	Parallel int
	// SimWorkers parallelizes INSIDE a single experiment cell: solo
	// calibration runs execute as shards of a vtime.ShardedClock, the
	// per-cell scheduler simulations shard the same way (SimBenchCell),
	// engines fan the static pass of their rate fixpoint across kernels
	// (engine.Workers), and the trace model's LegacyMRC oracle fans its
	// capacity-point simulations (TraceModel.BuildWorkers).
	// 0 or 1 keeps every simulation strictly serial. Output is
	// byte-identical at every setting — see DESIGN.md §15.
	SimWorkers int
	// Seed drives trace-assembly determinism; 0 selects the calibrated
	// default of 1.
	Seed int64
}

// Harness owns the shared trace-driven performance model, the shared
// profiler, and a solo-time cache so experiments do not re-derive kernel
// locality. All three caches are content-addressed (kern.Spec.Fingerprint)
// and safe for the concurrent experiment cells the Parallel setting runs.
type Harness struct {
	Dev   *device.Device
	Model *engine.TraceModel
	// Prof is the profiler shared by every Slate backend the harness
	// builds; profiles are pure functions of (content, device, model), so
	// sharing changes nothing but wall-clock.
	Prof *profile.Profiler
	Loop float64

	par        int
	simWorkers int
	seed       int64

	mu   sync.Mutex
	solo map[string]*soloEntry // kernel fingerprint → solo-time slot
}

// soloEntry is one single-flight solo measurement; ready is closed once
// sec/err are final.
type soloEntry struct {
	ready chan struct{}
	sec   float64
	err   error
}

// New builds a harness.
func New(cfg Config) *Harness {
	dev := cfg.Dev
	if dev == nil {
		dev = device.TitanXp()
	}
	loop := cfg.LoopSeconds
	if loop <= 0 {
		loop = 3.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	model := engine.NewTraceModel(dev)
	model.Seed = seed
	model.BuildWorkers = cfg.SimWorkers
	return &Harness{
		Dev:        dev,
		Model:      model,
		Prof:       profile.New(dev, model),
		Loop:       loop,
		par:        cfg.Parallel,
		simWorkers: cfg.SimWorkers,
		seed:       seed,
		solo:       map[string]*soloEntry{},
	}
}

// simWindow is the conservative window width for the harness's sharded
// sub-simulations. The shards (solo calibrations, per-scheduler cell runs)
// never exchange events, so any width is correct; a finite window keeps the
// barrier machinery exercised on every run.
const simWindow = vtime.Millisecond

// soloKernelSec returns one launch's solo duration under the hardware
// scheduler, cached by the spec's content fingerprint — two kernels sharing
// a name but differing in geometry or work model get separate entries, and
// renamed instances of one kernel share one. Concurrent callers of an
// uncached kernel single-flight behind the first measurement.
func (h *Harness) soloKernelSec(spec *kern.Spec) (float64, error) {
	fp := spec.Fingerprint()
	h.mu.Lock()
	if e, ok := h.solo[fp]; ok {
		h.mu.Unlock()
		<-e.ready
		return e.sec, e.err
	}
	e := &soloEntry{ready: make(chan struct{})}
	h.solo[fp] = e
	h.mu.Unlock()
	m, err := h.soloRun(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		e.err = err
	} else {
		e.sec = m.Duration().Seconds()
	}
	close(e.ready)
	if e.err != nil {
		h.mu.Lock()
		if h.solo[fp] == e {
			delete(h.solo, fp)
		}
		h.mu.Unlock()
	}
	return e.sec, e.err
}

// soloRun executes one launch on a scratch clock.
func (h *Harness) soloRun(spec *kern.Spec, opts engine.LaunchOpts) (engine.Metrics, error) {
	clk := vtime.NewClock()
	e := engine.New(h.Dev, clk, h.Model)
	e.Workers = h.simWorkers
	hd, err := e.Launch(spec, opts)
	if err != nil {
		return engine.Metrics{}, err
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return engine.Metrics{}, fmt.Errorf("harness: solo run of %q did not converge", spec.Name)
	}
	if !hd.Done() {
		return engine.Metrics{}, fmt.Errorf("harness: kernel %q incomplete", spec.Name)
	}
	return hd.Metrics(), nil
}

// preheatSolos fills the solo-time cache for the given kernels by running
// the uncached ones as shards of one ShardedClock — the solo calibrations
// are mutually independent simulations, so they are the natural shard key
// for a cell's setup phase. Claims follow the same single-flight protocol
// as soloKernelSec: concurrent callers of an already-claimed kernel block on
// its entry rather than re-simulating. A no-op when SimWorkers <= 1 (the
// serial path measures lazily) or everything is already cached.
func (h *Harness) preheatSolos(specs []*kern.Spec) {
	if h.simWorkers <= 1 {
		return
	}
	type claim struct {
		spec *kern.Spec
		e    *soloEntry
	}
	var claims []claim
	h.mu.Lock()
	for _, spec := range specs {
		fp := spec.Fingerprint()
		if _, ok := h.solo[fp]; ok {
			continue
		}
		e := &soloEntry{ready: make(chan struct{})}
		h.solo[fp] = e
		claims = append(claims, claim{spec, e})
	}
	h.mu.Unlock()
	if len(claims) == 0 {
		return
	}

	sc := vtime.NewSharded(len(claims), simWindow)
	sc.Workers = h.simWorkers
	handles := make([]*engine.Handle, len(claims))
	errs := make([]error, len(claims))
	for i, cl := range claims {
		i, cl := i, cl
		eng := engine.New(h.Dev, sc.Shard(i), h.Model)
		// Launch inside the shard's first event, not here: Launch performs
		// the initial recompute — including any cold model build — and that
		// work must land on the shard to run in parallel.
		sc.Shard(i).At(0, func(vtime.Time) {
			handles[i], errs[i] = eng.Launch(cl.spec, engine.LaunchOpts{Mode: engine.HardwareSched})
		})
	}
	limit := 5_000_000 * len(claims)
	converged := sc.Run(limit) < limit
	for i, cl := range claims {
		switch {
		case errs[i] != nil:
			cl.e.err = errs[i]
		case !converged:
			cl.e.err = fmt.Errorf("harness: solo run of %q did not converge", cl.spec.Name)
		case handles[i] == nil || !handles[i].Done():
			cl.e.err = fmt.Errorf("harness: kernel %q incomplete", cl.spec.Name)
		default:
			cl.e.sec = handles[i].Metrics().Duration().Seconds()
		}
		close(cl.e.ready)
		if cl.e.err != nil {
			h.mu.Lock()
			if h.solo[cl.spec.Fingerprint()] == cl.e {
				delete(h.solo, cl.spec.Fingerprint())
			}
			h.mu.Unlock()
		}
	}
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcell := range header {
		widths[i] = len(hcell)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// csvJoin renders rows as CSV.
func csvJoin(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}
