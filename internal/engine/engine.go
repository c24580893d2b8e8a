// Package engine is the discrete-event GPU execution engine. Kernels
// progress at piecewise-constant rates between scheduling events (launch,
// completion, resize); at each event the engine recomputes every running
// kernel's block-completion rate from the device model:
//
//   - compute: SM share × peak issue × kernel efficiency × warp-occupancy ramp
//   - L2: accessed-byte ceiling scaled by SM share
//   - DRAM: per-kernel streaming ceiling (Fig. 1 knee) × run-length
//     efficiency, arbitrated across co-runners on the shared bus
//   - service floor: per-block dispatch latency (hardware) or task-queue
//     atomic (Slate), amortized over the active workers
//
// The L2 is partitioned among co-runners by access demand and each kernel's
// hit rate is read off its miss-ratio curve at its share — computed by the
// real cache simulator over the kernel's synthetic trace in the appropriate
// block order.
package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// Mode selects the block-scheduling regime for a kernel instance.
type Mode int

// Scheduling modes.
const (
	// HardwareSched is the stock block-oriented hardware scheduler: blocks
	// are dispatched to SMs in jittered wave order.
	HardwareSched Mode = iota
	// SlateSched runs the transformed kernel: persistent workers bound to
	// an SM range pull in-order tasks from the queue.
	SlateSched
)

func (m Mode) String() string {
	switch m {
	case HardwareSched:
		return "hardware"
	case SlateSched:
		return "slate"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Locality is what a PerfModel knows about one kernel under one scheduling
// regime: its miss-ratio curve over L2 capacity and the mean sequential run
// length of its first-touch DRAM stream. A Locality is immutable once
// returned; the engine keeps the pointer for the life of a Handle and any
// number of handles, engines and goroutines may share one.
type Locality struct {
	// Capacities are the L2 capacities in bytes, ascending, at which
	// MissRatio is sampled.
	Capacities []float64
	MissRatio  []float64
	// RunBytes is the mean sequential run length in bytes.
	RunBytes float64
}

// HitRate returns the L2 hit rate when the kernel effectively owns l2Bytes
// of cache: one minus the miss-ratio curve interpolated piecewise-linearly
// at that capacity, clamped outside the sampled range.
func (l *Locality) HitRate(l2Bytes float64) float64 {
	return 1 - interpolate(l.Capacities, l.MissRatio, l2Bytes)
}

// PerfModel supplies a kernel's locality under a given scheduling regime.
// Implementations may run real cache simulations (TraceModel) or return
// fixed values (StaticModel, for tests).
//
// The engine resolves each Handle once, on the first rate computation in
// which it holds SMs, and interpolates on the returned curve from then on.
// Implementations must be safe for concurrent calls: with Engine.Workers > 1
// several still-unresolved handles resolve on separate goroutines, and
// engines running different simulations share one model. TraceModel's
// single-flight entry cache and the stateless StaticModel both satisfy this.
// Locality must be a pure function of its arguments: the engine's rate memo
// reuses a solve without asking the model again. Both models are.
type PerfModel interface {
	// Locality returns the kernel's locality under the given mode and task
	// size.
	Locality(spec *kern.Spec, mode Mode, taskSize int) *Locality
}

// DefaultTaskSize is the SLATE_ITERS grouping a launch, the scheduler and the
// profiler use when none is given (Fig. 5 puts the best all-round value
// there). One name, because the model entry a sweep will ask for is keyed by
// it: the harness's calibration pass builds that entry ahead of the cells.
const DefaultTaskSize = 10

// LaunchOpts configures a kernel instance.
type LaunchOpts struct {
	Mode Mode
	// TaskSize is the SLATE_ITERS grouping (Slate mode; <=0 selects
	// DefaultTaskSize).
	TaskSize int
	// SMLow and SMHigh bound the designated SM range, inclusive (Slate
	// mode). Hardware mode ignores them and competes for the whole device.
	SMLow, SMHigh int
	// Priority orders leftover allocation (lower = earlier arrival wins).
	// Defaults to launch order.
	Priority int
}

// Metrics accumulates a kernel instance's counters, the source of the
// nvprof-style numbers in Tables II-IV.
type Metrics struct {
	Launched  vtime.Time
	Completed vtime.Time
	// Busy is the time during which the kernel had a nonzero allocation.
	Busy vtime.Duration
	// FLOPs, L2Bytes, DRAMBytes, Instr are totals over the execution.
	FLOPs     float64
	L2Bytes   float64
	DRAMBytes float64
	Instr     float64
	// StallMemThrottle is the time-weighted fraction of execution in which
	// the DRAM bus, not compute, limited progress (nvprof's memory
	// throttle stall reason).
	StallMemThrottle float64
	// Atomics counts task-queue pulls (Slate mode).
	Atomics int64
	// Resizes counts dynamic SM-range adjustments.
	Resizes int
	// SMSecondsIntegral accumulates ∫ SMs dt, for IPC normalization.
	SMSecondsIntegral float64
}

// Duration returns the kernel's makespan.
func (m Metrics) Duration() vtime.Duration { return m.Completed.Sub(m.Launched) }

// GFLOPS returns achieved GFLOP/s over the makespan.
func (m Metrics) GFLOPS() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.FLOPs / d / 1e9
}

// AccessBW returns the achieved L2-visible access bandwidth in GB/s — the
// sum of global load and store throughput as nvprof reports it.
func (m Metrics) AccessBW() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.L2Bytes / d / 1e9
}

// DRAMBW returns the achieved DRAM bandwidth in GB/s.
func (m Metrics) DRAMBW() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.DRAMBytes / d / 1e9
}

// IPC returns instructions per SM-cycle averaged over the SMs the kernel
// actually occupied.
func (m Metrics) IPC(clockHz float64) float64 {
	if m.SMSecondsIntegral <= 0 {
		return 0
	}
	return m.Instr / (m.SMSecondsIntegral * clockHz)
}

// Handle identifies a running (or completed) kernel instance.
//
// Ownership: a Handle belongs to its launcher until it is handed back with
// Engine.Release, after which the engine may reuse it for a later Launch —
// retaining the pointer past Release is a bug, the same rule vtime.Event
// follows. A handle that is never released stays valid for as long as it is
// referenced.
type Handle struct {
	id         int
	spec       *kern.Spec
	specID     uint64 // the spec's rate-memo ID on this engine
	opts       LaunchOpts
	numBlocks  float64
	blocksDone float64
	metrics    Metrics
	done       bool
	evicted    bool
	onComplete []func(vtime.Time)
	// firing is set while the callbacks of the handle's completion event
	// run; released records a Release, which waits for them to return.
	firing, released bool

	// cached static parameters
	warpsPerBlock float64
	resident      float64 // blocks of this shape resident on one SM
	// unit is the scheduling unit in blocks (the task size under Slate, one
	// block under hardware) and units the kernel's count of them.
	unit, units float64
	// wave is the wave geometry at the allocation last asked about: every
	// event asks again, nearly always at the same allocation.
	wave waveGeom
	// loc is the kernel's locality, resolved from the PerfModel by the first
	// rate computation in which the instance holds SMs (where any expensive
	// cold model build happens) and read lock-free from then on.
	loc *Locality

	// dynamic state
	pausedUntil vtime.Time
	completion  *vtime.Event
	checkpoint  *vtime.Event

	// last computed rate snapshot (blocks/sec and per-block resource use)
	rate        float64
	dramPerBlk  float64
	hitRate     float64
	memThrottle float64
	smAlloc     float64

	// rate/allocation at which the pending completion and checkpoint
	// events were scheduled; when both are bitwise-unchanged by a
	// recompute, the events still describe the correct schedule and the
	// cancel-and-reschedule churn is skipped.
	schedRate  float64
	schedAlloc float64
}

// Spec returns the kernel descriptor.
func (h *Handle) Spec() *kern.Spec { return h.spec }

// Done reports whether the instance has completed (or was evicted).
func (h *Handle) Done() bool { return h.done }

// Evicted reports whether the instance was stopped by Evict rather than
// running to completion. Its Metrics are partial: they cover only the blocks
// executed before the eviction point.
func (h *Handle) Evicted() bool { return h.evicted }

// Metrics returns a copy of the instance's counters (final after Done).
func (h *Handle) Metrics() Metrics { return h.metrics }

// Progress returns completed blocks (the slateIdx the dispatch kernel
// carries across relaunches).
func (h *Handle) Progress() float64 { return h.blocksDone }

// SMRange returns the current designated range (Slate mode).
func (h *Handle) SMRange() (low, high int) { return h.opts.SMLow, h.opts.SMHigh }

// Engine drives kernel execution on one device.
type Engine struct {
	Dev   *device.Device
	Clock *vtime.Clock
	Model PerfModel

	// Workers bounds the goroutines used to fan per-kernel work inside a
	// single event. Two things fan: the static pass of a rate solve that
	// missed the memo (locality resolution plus the share-independent rate
	// ceilings), when the kernel set is wide or several handles still need a
	// possibly cold model build, and the advanceProgress integration over a
	// wide kernel set. The fixpoint iterations themselves — an interpolation
	// and a few multiplies per kernel, then the cross-kernel folds (bus
	// arbitration, L2 share update) — always run serially. <= 1 keeps the
	// whole hot path serial. Results are bit-identical at any setting: each
	// kernel writes only its own handle and index-assigned slots, so this is
	// a pure wall-clock knob.
	Workers int

	// rescheduleEveryEvent disables the completion-event reschedule skip
	// so tests can measure the event churn it removes.
	rescheduleEveryEvent bool

	nextID     int
	running    []*Handle
	lastUpdate vtime.Time

	// memo holds every rate solve this engine has made (rateMemo).
	memo rateMemo

	// scratch holds the per-recompute working buffers. recompute runs on
	// every simulation event, and without reuse these allocations dominate
	// the event loop's profile.
	scratch engineScratch
	// recomputeFn is e.recompute bound once, so scheduling an event does not
	// allocate a closure.
	recomputeFn func(vtime.Time)
	// free holds released handles for Launch to reuse.
	free []*Handle
}

// engineScratch is the reusable working set of recompute. recompute re-enters
// itself through OnComplete callbacks, so a buffer may be live across a
// callback only if its user detaches it first (finished); the rest are
// written and consumed inside allocate/computeRates, which run no callbacks.
type engineScratch struct {
	alloc, active, shares, demands, grants, accessRates []float64
	terms                                               []rateTerms
	snaps                                               []rateSnap
	order                                               []int
	finished                                            []*Handle
}

// rateTerms is the part of one kernel's rate that does not depend on its L2
// share: computed once per recompute, read by every fixpoint iteration.
type rateTerms struct {
	// live reports that the kernel holds SMs and has active workers.
	live bool
	// uncon is the block rate before the bus: the minimum of the compute,
	// L2, latency and queue-serialization ceilings.
	uncon float64
	// dramCeil is the DRAM bandwidth the kernel can pull on its own.
	dramCeil float64
}

// rateSnap is one kernel's rate snapshot within the fixpoint.
type rateSnap struct {
	rate, dramPB, hit, throttle float64
}

// Fan gates. Per-kernel work on resolved handles is tens of nanoseconds and
// a goroutine handoff would dominate, so the fans engage only where they
// pay: a kernel set wide enough to amortize the handoff or, for the static
// rate pass, at least two handles whose locality may each need a cold model
// build (milliseconds of trace synthesis and MRC sweeping). Vars rather than
// consts so tests can lower them.
var (
	rateFanKernels    = 16
	advanceFanKernels = 16
)

// f64Scratch returns buf resized to n, reallocating only on growth. The
// caller is responsible for (re)initializing the contents.
func f64Scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// fanKernels runs f(0..n-1) on min(e.Workers, n) goroutines, pulling indices
// from a shared counter. The caller guarantees f(i) touches only slot i.
func (e *Engine) fanKernels(n int, f func(i int)) {
	workers := e.Workers
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// New constructs an engine. The device must validate.
func New(dev *device.Device, clock *vtime.Clock, model PerfModel) *Engine {
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{Dev: dev, Clock: clock, Model: model}
	e.recomputeFn = e.recompute
	return e
}

// Running returns the live instance count.
func (e *Engine) Running() int { return len(e.running) }

// Sync integrates every running kernel's progress up to the current virtual
// time so Progress and Metrics reads are current. Rates are unchanged; it is
// safe to call from any event callback.
func (e *Engine) Sync() { e.advanceProgress(e.Clock.Now()) }

// Launch starts a kernel instance now and returns its handle.
func (e *Engine) Launch(spec *kern.Spec, opts LaunchOpts) (*Handle, error) {
	facts, known := e.memo.specs[spec]
	if !known {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.TaskSize <= 0 {
		opts.TaskSize = DefaultTaskSize
	}
	if opts.Mode == SlateSched {
		if opts.SMLow < 0 || opts.SMHigh >= e.Dev.NumSMs || opts.SMLow > opts.SMHigh {
			return nil, fmt.Errorf("engine: invalid SM range [%d,%d] on %d-SM device", opts.SMLow, opts.SMHigh, e.Dev.NumSMs)
		}
	} else {
		opts.SMLow, opts.SMHigh = 0, e.Dev.NumSMs-1
	}
	if opts.Priority == 0 {
		opts.Priority = e.nextID + 1
	}
	if !known {
		resident := e.Dev.ResidentBlocks(spec.Shape())
		if resident == 0 {
			return nil, fmt.Errorf("engine: kernel %q block shape does not fit on an SM", spec.Name)
		}
		facts = e.memo.addSpec(spec, resident)
	}
	unit := 1.0
	if opts.Mode == SlateSched {
		unit = float64(opts.TaskSize)
	}
	var h *Handle
	if n := len(e.free); n > 0 {
		h = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		h = new(Handle)
	}
	*h = Handle{
		id:            e.nextID,
		spec:          spec,
		specID:        facts.id,
		opts:          opts,
		numBlocks:     facts.numBlocks,
		onComplete:    h.onComplete,
		warpsPerBlock: facts.warpsPerBlock,
		resident:      facts.resident,
		unit:          unit,
		units:         math.Ceil(facts.numBlocks / unit),
		wave:          waveGeom{smAlloc: math.NaN()},
	}
	e.nextID++
	h.metrics.Launched = e.Clock.Now()
	e.running = append(e.running, h)
	e.recompute(e.Clock.Now())
	return h, nil
}

// Release hands a finished (completed or evicted) handle back to the engine,
// which reuses it, every field reset, for a later Launch; after Release the
// caller must not touch h. Releasing a running handle, or one twice, panics.
// Called from one of h's completion callbacks, Release takes effect once
// every callback of that event has returned, so the later ones still run.
func (e *Engine) Release(h *Handle) {
	if !h.done || h.released {
		panic("engine: Release of a running or already released handle")
	}
	h.released = true
	if !h.firing {
		e.reuse(h)
	}
}

// reuse puts a released handle on the free list, dropping its callbacks so
// what they captured is collectable but keeping their backing array. Until
// Launch reuses it the handle still reads Done, and a second Release of it
// still panics.
func (e *Engine) reuse(h *Handle) {
	clear(h.onComplete)
	*h = Handle{done: true, released: true, onComplete: h.onComplete[:0]}
	e.free = append(e.free, h)
}

// OnComplete registers a callback fired when the instance finishes. If the
// instance already finished, the callback fires immediately.
func (e *Engine) OnComplete(h *Handle, fn func(vtime.Time)) {
	if h.done {
		fn(e.Clock.Now())
		return
	}
	h.onComplete = append(h.onComplete, fn)
}

// Resize changes a Slate instance's designated SM range. The instance pays
// the device's resize penalty (retreat, drain, relaunch) before progressing
// on the new range; its queue cursor carries over.
func (e *Engine) Resize(h *Handle, smLow, smHigh int) error {
	if h.done {
		return fmt.Errorf("engine: resize of completed kernel %q", h.spec.Name)
	}
	if h.opts.Mode != SlateSched {
		return fmt.Errorf("engine: resize requires Slate scheduling")
	}
	if smLow < 0 || smHigh >= e.Dev.NumSMs || smLow > smHigh {
		return fmt.Errorf("engine: invalid SM range [%d,%d]", smLow, smHigh)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	h.opts.SMLow, h.opts.SMHigh = smLow, smHigh
	h.metrics.Resizes++
	h.pausedUntil = now.Add(vtime.FromSeconds(e.Dev.ResizeSeconds))
	e.Clock.At(h.pausedUntil, e.recomputeFn)
	e.recompute(now)
	return nil
}

// Evict stops a running instance at a block boundary — the software
// analogue of the containment MPS cannot provide (§III): because Slate
// dispatches work in task-sized pulls from a queue, the runtime can simply
// stop granting tasks and reclaim the SM range at the next boundary. The
// instance is marked done (and Evicted), its partial Metrics are finalized
// and returned, its SM range frees immediately for co-runners, and its
// OnComplete callbacks do NOT fire — eviction is the caller's decision and
// the caller owns the aftermath (requeue, quarantine, abandon).
func (e *Engine) Evict(h *Handle) (Metrics, error) {
	if h.done {
		return h.metrics, fmt.Errorf("engine: evict of completed kernel %q", h.spec.Name)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	// Stop at the enclosing block boundary: a block that has started finishes
	// (the queue pull is irrevocable, Listing 2), partial blocks do not count.
	h.blocksDone = math.Floor(h.blocksDone)
	if h.blocksDone > h.numBlocks {
		h.blocksDone = h.numBlocks
	}
	h.done = true
	h.evicted = true
	h.metrics.Completed = now
	if h.metrics.Busy > 0 {
		h.metrics.StallMemThrottle /= h.metrics.Busy.Seconds()
	}
	if h.completion != nil {
		e.Clock.Cancel(h.completion)
		h.completion = nil
	}
	if h.checkpoint != nil {
		e.Clock.Cancel(h.checkpoint)
		h.checkpoint = nil
	}
	for i, r := range e.running {
		if r == h {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	// Reallocate: survivors see the freed SMs at once.
	e.recompute(now)
	return h.metrics, nil
}

// Stall freezes a running instance for d of virtual time: its allocation
// drops to zero and its progress stops, modeling a runaway kernel wedged in
// a retreat/relaunch cycle or an infinite loop. It is the engine-level fault
// injection the watchdog exists to catch. Stalling an instance again before
// the first stall elapses extends the stall.
func (e *Engine) Stall(h *Handle, d vtime.Duration) error {
	if h.done {
		return fmt.Errorf("engine: stall of completed kernel %q", h.spec.Name)
	}
	if d < 0 {
		return fmt.Errorf("engine: negative stall duration %d", d)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	h.pausedUntil = now.Add(d)
	e.Clock.At(h.pausedUntil, e.recomputeFn)
	e.recompute(now)
	return nil
}

// advanceProgress integrates every running kernel's progress and metrics
// from lastUpdate to now using the last computed rates. Each kernel's
// integration touches only its own handle, so wide kernel sets fan across
// Workers goroutines with bit-identical results.
func (e *Engine) advanceProgress(now vtime.Time) {
	dt := now.Sub(e.lastUpdate).Seconds()
	e.lastUpdate = now
	if dt <= 0 {
		return
	}
	if e.Workers > 1 && len(e.running) >= advanceFanKernels {
		e.fanKernels(len(e.running), func(i int) { e.advanceHandle(e.running[i], dt) })
		return
	}
	for _, h := range e.running {
		e.advanceHandle(h, dt)
	}
}

// advanceHandle integrates one kernel's progress over dt seconds.
func (e *Engine) advanceHandle(h *Handle, dt float64) {
	if h.rate <= 0 {
		return
	}
	blocks := h.rate * dt
	if rem := h.numBlocks - h.blocksDone; blocks > rem {
		blocks = rem
	}
	h.blocksDone += blocks
	ovh := 1.0
	if h.opts.Mode == SlateSched {
		ovh = 1 + e.Dev.InjectedInstrOverhead
	}
	h.metrics.FLOPs += blocks * h.spec.FLOPsPerBlock
	h.metrics.L2Bytes += blocks * h.spec.L2BytesPerBlock
	h.metrics.DRAMBytes += blocks * h.dramPerBlk
	h.metrics.Instr += blocks * h.spec.InstrPerBlock * ovh
	h.metrics.Busy += vtime.FromSeconds(dt)
	h.metrics.StallMemThrottle += h.memThrottle * dt
	h.metrics.SMSecondsIntegral += h.smAlloc * dt
	if h.opts.Mode == SlateSched && h.numBlocks > 0 {
		h.metrics.Atomics = int64(h.blocksDone) / int64(h.opts.TaskSize)
	}
}

// recompute advances progress to now, retires finished kernels, reallocates
// SMs, recomputes rates, and reschedules completion events.
func (e *Engine) recompute(now vtime.Time) {
	e.advanceProgress(now)

	// Retire finished kernels, compacting the running set in place. The
	// finished list outlives the callbacks below, which may re-enter
	// recompute, so it is detached from the scratch while in use.
	finished := e.scratch.finished[:0]
	e.scratch.finished = nil
	live := e.running[:0]
	for _, h := range e.running {
		if h.numBlocks-h.blocksDone < 1e-6 {
			h.blocksDone = h.numBlocks
			h.done = true
			h.metrics.Completed = now
			if h.metrics.Busy > 0 {
				h.metrics.StallMemThrottle /= h.metrics.Busy.Seconds()
			}
			if h.completion != nil {
				e.Clock.Cancel(h.completion)
				h.completion = nil
			}
			if h.checkpoint != nil {
				e.Clock.Cancel(h.checkpoint)
				h.checkpoint = nil
			}
			finished = append(finished, h)
		} else {
			live = append(live, h)
		}
	}
	clear(e.running[len(live):])
	e.running = live

	// Completion callbacks may launch or resize kernels, re-entering
	// recompute; run them after state is consistent. A handle released by
	// one of them is reused only after all of them have returned.
	for _, h := range finished {
		h.firing = true
	}
	for _, h := range finished {
		for _, fn := range h.onComplete {
			fn(now)
		}
	}
	for _, h := range finished {
		h.firing = false
		if h.released {
			e.reuse(h)
		}
	}
	if len(finished) > 0 {
		// Callbacks may have changed the running set and already
		// recomputed; recompute once more to be safe (idempotent at fixed
		// time).
		e.advanceProgress(e.Clock.Now())
		clear(finished)
	}
	e.scratch.finished = finished[:0]

	e.computeRates(e.Clock.Now())

	// Reschedule completion events and tail-reallocation checkpoints.
	for _, h := range e.running {
		// Drop references to events that already fired: the clock recycles
		// their allocations once the callback returns, so cancelling a
		// stale pointer later could hit an unrelated reissued event.
		if h.completion != nil && !h.completion.Pending() {
			h.completion = nil
		}
		if h.checkpoint != nil && !h.checkpoint.Pending() {
			h.checkpoint = nil
		}
		// Skip the cancel-and-reschedule when nothing about this kernel's
		// schedule changed — the common case when an unrelated co-runner
		// event triggered the recompute. Rate is a step function of
		// blocksDone for a fixed co-runner set, and under a constant rate
		// the pending completion's absolute time (now + remaining/rate) is
		// invariant, so a bitwise-unchanged (rate, allocation) pair means
		// the pending events still describe the correct schedule.
		if !e.rescheduleEveryEvent && h.completion != nil &&
			h.rate == h.schedRate && h.smAlloc == h.schedAlloc {
			continue
		}
		if h.completion != nil {
			e.Clock.Cancel(h.completion)
			h.completion = nil
		}
		if h.checkpoint != nil {
			e.Clock.Cancel(h.checkpoint)
			h.checkpoint = nil
		}
		h.schedRate, h.schedAlloc = h.rate, h.smAlloc
		if h.rate <= 0 {
			continue
		}
		rem := h.numBlocks - h.blocksDone
		dt := vtime.FromSeconds(rem / h.rate)
		if dt < 1 {
			dt = 1
		}
		h.completion = e.Clock.After(dt, e.recomputeFn)

		// Parallelism drops when the kernel enters its final wave, and
		// leftover allocation shifts as a hardware kernel drains; refine
		// with checkpoints. The wave boundary is exact; the geometric
		// halving refines continuous leftover reallocation for co-runners.
		var ck vtime.Duration
		if _, _, boundary := h.waves(h.smAlloc); h.blocksDone < boundary {
			ck = vtime.FromSeconds((boundary - h.blocksDone) / h.rate)
		} else if len(e.running) > 1 {
			ck = vtime.FromSeconds(rem / (2 * h.rate))
		}
		if ck >= 100 && ck < dt {
			h.checkpoint = e.Clock.After(ck, e.recomputeFn)
		}
	}
}

// allocate returns each running kernel's SM allocation in SM units.
// Slate instances own their designated ranges. Hardware instances share the
// remaining SMs under the leftover policy: in priority order, each takes the
// SMs needed to hold its remaining blocks, the next takes what is left —
// which for full-size kernels means the later kernel only runs during the
// earlier one's tail (§V-A2).
func (e *Engine) allocate(now vtime.Time) []float64 {
	e.scratch.alloc = f64Scratch(e.scratch.alloc, len(e.running))
	alloc := e.scratch.alloc
	free := float64(e.Dev.NumSMs)

	// Slate partitions first (disjoint by construction of the scheduler).
	for i, h := range e.running {
		if h.opts.Mode != SlateSched {
			continue
		}
		if now < h.pausedUntil {
			alloc[i] = 0
			continue
		}
		span := float64(h.opts.SMHigh - h.opts.SMLow + 1)
		alloc[i] = span
		free -= span
	}
	if free < 0 {
		free = 0
	}

	// Hardware kernels in priority order take what their remaining blocks
	// can fill, from what is free. The order is built by insertion, in index
	// order, past strictly later priorities only: equal priorities keep index
	// order, so the permutation is the unique (priority, index) sort.
	order := e.scratch.order[:0]
	for i, h := range e.running {
		if h.opts.Mode != HardwareSched {
			continue
		}
		j := len(order)
		order = append(order, i)
		for ; j > 0 && e.running[order[j-1]].opts.Priority > h.opts.Priority; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	e.scratch.order = order
	for _, i := range order {
		h := e.running[i]
		if free <= 0 || now < h.pausedUntil {
			alloc[i] = 0
			continue
		}
		// The hardware scheduler distributes blocks breadth-first, so a
		// kernel's SM footprint is one SM per in-flight block until it runs
		// out of blocks — even a small kernel touches every SM. That is why
		// the leftover policy almost never coruns these workloads (§V-A2):
		// SMs only free up when the in-flight wave shrinks below the SM
		// count at the very end of a kernel.
		needSMs := h.activeWorkers(free)
		if needSMs > free {
			needSMs = free
		}
		alloc[i] = needSMs
		free -= needSMs
	}
	return alloc
}

// computeRates runs the coupled rate/L2-share fixpoint and stores each
// running kernel's snapshot. A configuration this engine solved before is
// read from the memo (rateMemo) instead; allocate runs either way, because
// the key needs its output. Only three quantities depend on a kernel's L2
// share — its hit rate, hence its DRAM bytes per block, hence its bus demand
// — so everything else (rateTerms) is computed once, before the iterations;
// that static pass is also where a handle's locality is resolved, and so
// where any expensive cold model build happens. It writes only the kernel's
// own handle and index-assigned slot, so it fans across Workers goroutines
// with bit-identical results; the iterations and their cross-kernel folds
// (bus arbitration, L2 share update) stay serial.
func (e *Engine) computeRates(now vtime.Time) {
	n := len(e.running)
	if n == 0 {
		return
	}
	alloc := e.allocate(now)

	sc := &e.scratch
	sc.active = f64Scratch(sc.active, n)
	active := sc.active
	for i, h := range e.running {
		active[i] = 0
		if alloc[i] > 0 {
			active[i] = h.activeWorkers(alloc[i])
		}
	}
	e.memo.encode(e.running, alloc, active)
	if snaps := e.memo.lookup(n); snaps != nil {
		e.storeRates(snaps, alloc)
		return
	}

	sc.shares = f64Scratch(sc.shares, n)
	sc.demands = f64Scratch(sc.demands, n)
	sc.grants = f64Scratch(sc.grants, n)
	sc.accessRates = f64Scratch(sc.accessRates, n)
	if cap(sc.snaps) < n {
		sc.snaps = make([]rateSnap, n)
		sc.terms = make([]rateTerms, n)
	}
	shares, demands, accessRates := sc.shares, sc.demands, sc.accessRates
	snaps, terms := sc.snaps[:n], sc.terms[:n]

	// Bus interference applies only among kernels that actually hold SMs.
	sharers, unresolved := 0, 0
	for i, h := range e.running {
		if alloc[i] > 0 {
			sharers++
			if h.loc == nil {
				unresolved++
			}
		}
	}
	corun := sharers > 1
	if e.Workers > 1 && n > 1 && (n >= rateFanKernels || unresolved > 1) {
		e.fanKernels(n, func(i int) { terms[i] = e.staticTerms(e.running[i], alloc[i], active[i], corun) })
	} else {
		for i, h := range e.running {
			terms[i] = e.staticTerms(h, alloc[i], active[i], corun)
		}
	}

	// Initial equal L2 shares.
	for i := range shares {
		shares[i] = 1.0 / float64(n)
		snaps[i] = rateSnap{}
	}
	l2Size := float64(e.Dev.L2.SizeBytes)
	for iter := 0; iter < 4; iter++ {
		// Pass 1: per-kernel bus demand at the current share.
		for i, h := range e.running {
			demands[i], accessRates[i] = 0, 0
			if !terms[i].live {
				continue
			}
			hit := h.loc.HitRate(shares[i] * l2Size)
			dramPB := h.spec.L2BytesPerBlock * (1 - hit)
			snaps[i].hit, snaps[i].dramPB = hit, dramPB
			if dramPB > 0 {
				demands[i] = math.Min(terms[i].uncon*dramPB, terms[i].dramCeil)
			}
		}

		// Pass 2: arbitrate the shared bus and finalize rates.
		grants := e.Dev.DRAM.ArbitrateInto(sc.grants, demands)
		totalAccess := 0.0
		for i, h := range e.running {
			if alloc[i] <= 0 {
				continue
			}
			r := terms[i].uncon
			throttle := 0.0
			if snaps[i].dramPB > 0 {
				dramRate := grants[i] / snaps[i].dramPB
				if dramRate < r {
					throttle = 1 - dramRate/r
					r = dramRate
				}
			}
			snaps[i].rate = r
			snaps[i].throttle = throttle
			accessRates[i] = r * h.spec.L2BytesPerBlock
			totalAccess += accessRates[i]
		}

		// Pass 3: update L2 shares by access demand for the next iteration.
		if totalAccess > 0 {
			for i := range shares {
				shares[i] = accessRates[i] / totalAccess
			}
		}
	}

	e.memo.insert(snaps)
	e.storeRates(snaps, alloc)
}

// storeRates writes each running kernel's snapshot and allocation into its
// handle.
func (e *Engine) storeRates(snaps []rateSnap, alloc []float64) {
	for i, h := range e.running {
		h.rate = snaps[i].rate
		h.dramPerBlk = snaps[i].dramPB
		h.hitRate = snaps[i].hit
		h.memThrottle = snaps[i].throttle
		h.smAlloc = alloc[i]
	}
}

// staticTerms returns the share-independent rate terms of h on s SMs with
// active workers, resolving h's locality first if this is the first time it
// holds any. corun reports that more than one kernel holds SMs.
func (e *Engine) staticTerms(h *Handle, s, active float64, corun bool) rateTerms {
	if s <= 0 {
		return rateTerms{}
	}
	if h.loc == nil {
		h.loc = e.Model.Locality(h.spec, h.opts.Mode, h.opts.TaskSize)
	}
	// Active workers spread across the allocated SMs; once fewer
	// workers than SMs remain, each active block has an SM to
	// itself and the kernel effectively occupies only `occ` SMs.
	occ := s
	if active < occ {
		occ = active
	}
	if occ <= 0 {
		return rateTerms{}
	}
	warpsPerSM := active * h.warpsPerBlock / occ
	mlp := h.spec.MemMLP
	if mlp <= 0 {
		mlp = 1
	}
	cUtil := e.Dev.SM.ComputeUtil(warpsPerSM)
	mUtil := e.Dev.SM.MemUtil(warpsPerSM * mlp)

	ovh := 1.0
	if h.opts.Mode == SlateSched {
		ovh = 1 + e.Dev.InjectedInstrOverhead
	}
	ops := h.spec.OpsPerBlock
	if ops <= 0 {
		ops = h.spec.FLOPsPerBlock
	}
	computeRate := math.Inf(1)
	if ops > 0 {
		rc := occ * e.Dev.SM.PeakFLOPS() * h.spec.ComputeEff * cUtil
		computeRate = rc / (ops * ovh)
	}
	l2Rate := math.Inf(1)
	if h.spec.L2BytesPerBlock > 0 {
		rl2 := e.Dev.DRAM.L2Ceiling(int(math.Ceil(occ)), e.Dev.NumSMs)
		l2Rate = rl2 / h.spec.L2BytesPerBlock
	}
	// Service floor: dispatch (hardware) or queue atomic (Slate),
	// amortized over active workers, plus the block latency floor.
	floor := e.Dev.BlockLatencySeconds
	serialRate := math.Inf(1)
	if h.opts.Mode == HardwareSched {
		floor += e.Dev.BlockDispatchSeconds
	} else {
		floor += e.Dev.AtomicSerialSeconds / float64(h.opts.TaskSize)
		// Global queue serialization: one atomic at a time.
		serialRate = float64(h.opts.TaskSize) / e.Dev.AtomicSerialSeconds
	}
	latRate := active / floor

	memEff := h.spec.MemEff
	if memEff <= 0 {
		memEff = 1
	}
	dramCeil := e.Dev.DRAM.StreamCeiling(int(math.Ceil(occ))) * e.Dev.DRAM.RunEfficiency(h.loc.RunBytes) * mUtil * memEff
	if corun {
		// Sharing the bus with another kernel's stream breaks
		// row locality for both (memsys.CorunEfficiency).
		dramCeil *= e.Dev.DRAM.CorunEff()
	}
	return rateTerms{
		live:     true,
		uncon:    math.Min(computeRate, math.Min(l2Rate, math.Min(latRate, serialRate))),
		dramCeil: dramCeil,
	}
}

// waveGeom is a kernel's wave geometry on smAlloc SMs (Handle.waves).
type waveGeom struct {
	smAlloc                      float64
	capacity, lastWave, boundary float64
}

// waves returns the kernel's wave geometry on smAlloc SMs. Workers drain the
// queue in waves of `capacity` scheduling units (tasks under Slate, blocks
// under hardware) that progress in lockstep; lastWave is the size of the
// final, possibly underpopulated wave and boundary the blocksDone value at
// which it begins. Everything but smAlloc is fixed at Launch, so the
// geometry at the last allocation asked about is kept and reused.
func (h *Handle) waves(smAlloc float64) (capacity, lastWave, boundary float64) {
	if w := &h.wave; w.smAlloc == smAlloc {
		return w.capacity, w.lastWave, w.boundary
	}
	capacity = math.Floor(smAlloc * h.resident)
	if capacity < 1 {
		capacity = 1
	}
	fullWaves := math.Floor(h.units / capacity)
	lastWave = h.units - fullWaves*capacity
	if lastWave == 0 {
		lastWave = capacity
		fullWaves--
	}
	boundary = fullWaves * capacity * h.unit
	h.wave = waveGeom{smAlloc, capacity, lastWave, boundary}
	return capacity, lastWave, boundary
}

// activeWorkers returns how many block slots are actually processing work —
// the tail/imbalance model: parallelism is capacity through the full waves
// and drops to the final wave's size for the tail. A kernel whose task count
// is below capacity runs a single underpopulated wave for its entire
// execution — Fig. 5's BlackScholes load-imbalance case.
func (h *Handle) activeWorkers(smAlloc float64) float64 {
	capacity, lastWave, boundary := h.waves(smAlloc)
	if h.blocksDone >= boundary {
		return lastWave
	}
	return capacity
}
