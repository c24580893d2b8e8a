// Package sched implements Slate's workload-aware kernel scheduler
// (§III-B, §III-C and Fig. 4): kernels arriving from client sessions are
// profiled on first sight, paired with a running kernel when Table I calls
// them complementary, granted a disjoint SM partition sized from their
// measured SM-scaling profiles, and dynamically resized when partners
// arrive or complete. One admission core (Core) holds that policy;
// Scheduler drives it on the simulated device.
package sched

import (
	"fmt"
	"slices"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// Decision records one scheduling action, for traces and tests.
type Decision struct {
	At     vtime.Time
	Kernel string
	// Action is "solo", "corun", "queue", "dequeue", "grow" or "complete",
	// or — with containment on, as it always is on the host — "evict",
	// "requeue", "quarantine", "vanilla" or "abandon": the core emits these
	// for both drivers. Only the host executor emits "profile" (a first run
	// classified; Reason holds the class and solo time) and "panic" (Reason
	// holds the error), and it notes a graceful degradation as "vanilla".
	Action string
	// SMLow and SMHigh are the designated range for launch/resize actions
	// (a worker range on the host daemon's executor).
	SMLow, SMHigh int
	// Partner is the co-running kernel, if any.
	Partner string
	// Reason annotates containment actions ("stall", "overrun", strike
	// counts, "quarantined").
	Reason string
}

// Log is a decision log: every decision, or with Cap > 0 a ring of the most
// recent Cap.
type Log struct {
	Cap  int
	buf  []Decision // the ring
	next int        // a full ring's oldest slot
	// chunks hold an unbounded log, logChunk decisions each, so an Add never
	// copies an earlier decision.
	chunks [][]Decision
}

// logChunk is the number of decisions one chunk of an unbounded log holds.
const logChunk = 256

// Add appends d, overwriting the oldest decision once a ring is full.
func (l *Log) Add(d Decision) {
	if l.Cap == 0 {
		n := len(l.chunks)
		if n == 0 || len(l.chunks[n-1]) == logChunk {
			l.chunks = append(l.chunks, make([]Decision, 0, logChunk))
			n++
		}
		l.chunks[n-1] = append(l.chunks[n-1], d)
		return
	}
	if len(l.buf) < l.Cap {
		l.buf = append(l.buf, d)
		return
	}
	l.buf[l.next] = d
	l.next = (l.next + 1) % l.Cap
}

// All returns the kept decisions, oldest first: an unbounded log's chunks
// assembled into one slice on this call, or the ring's own slice when it
// is in order.
func (l *Log) All() []Decision {
	switch {
	case l.Cap == 0:
		return slices.Concat(l.chunks...)
	case l.next == 0:
		return l.buf
	}
	return append(append([]Decision(nil), l.buf[l.next:]...), l.buf[:l.next]...)
}

// Scheduler drives the admission core on the engine, in virtual time. It is
// single-threaded by construction: all entry points run inside
// virtual-clock callbacks.
type Scheduler struct {
	Dev  *device.Device
	Eng  *engine.Engine
	Prof *profile.Profiler

	// MaxConcurrent bounds spatial sharing; the paper evaluates pairs.
	MaxConcurrent int
	// GrowGraceSeconds delays the survivor's grow after a partner kernel
	// completes: looped applications relaunch within tens of microseconds,
	// and growing into SMs that are about to be reclaimed would thrash the
	// retreat/relaunch machinery on every iteration.
	GrowGraceSeconds float64
	// CorunFn decides whether an arrival may share the device with a
	// running kernel; nil selects Table I over the two classes
	// (policy.Corun). Ablations substitute always/never variants and the
	// ANTT-predictive policy (ANTTPredictCorun) here.
	CorunFn func(running, arrival *profile.Profile) bool
	// SplitFn sizes the partition when two kernels share the device (SMs
	// granted to the lower-range kernel, clamped by layoutFor); nil selects the
	// measured-scaling minimax optimizer, SplitFor.
	SplitFn func(running, arrival *profile.Profile) int

	core        Core
	pendingGrow *vtime.Event
	growFn      func(vtime.Time)
	// watchdog is nil unless EnableContainment was called.
	watchdog *engine.Watchdog
	// free holds finished entries for Submit to reuse; noReuse turns the
	// reuse off so a test can compare the two.
	free    []*entry
	noReuse bool
}

// entry is one submitted kernel: its core job plus what the engine needs.
// Entries are reused once finished, with completeFn bound once, so a submit
// allocates nothing.
type entry struct {
	job      Job
	spec     *kern.Spec
	taskSize int
	handle   *engine.Handle
	onDone   func(vtime.Time, engine.Metrics)

	s          *Scheduler
	completeFn func(vtime.Time)
}

// complete is the engine's completion callback of the entry's handle.
func (en *entry) complete(t vtime.Time) {
	s := en.s
	if s.watchdog != nil {
		s.watchdog.Unwatch(en.handle)
	}
	s.in().Depart(t, &en.job)
}

// newEntry returns a reset entry for spec, reusing a finished one if any.
func (s *Scheduler) newEntry(spec *kern.Spec, taskSize int, pr *profile.Profile, onDone func(vtime.Time, engine.Metrics)) *entry {
	var en *entry
	if n := len(s.free); n > 0 {
		en = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		en = &entry{s: s}
		en.completeFn = en.complete
	}
	en.spec, en.taskSize, en.onDone = spec, taskSize, onDone
	en.job = Job{Name: spec.Name, Prof: pr, Owner: en}
	return en
}

// reuse hands a finished entry back to the free list, dropping what it
// references.
func (s *Scheduler) reuse(en *entry) {
	if s.noReuse {
		return
	}
	en.spec, en.handle, en.onDone, en.job = nil, nil, nil, Job{}
	s.free = append(s.free, en)
}

// New constructs a scheduler driving the given engine.
func New(dev *device.Device, eng *engine.Engine, prof *profile.Profiler) *Scheduler {
	s := &Scheduler{
		Dev:              dev,
		Eng:              eng,
		Prof:             prof,
		MaxConcurrent:    2,
		GrowGraceSeconds: 200e-6,
	}
	s.core.Driver = (*simDriver)(s)
	s.growFn = func(t vtime.Time) {
		s.pendingGrow = nil
		s.in().GraceExpired(t)
	}
	return s
}

// in returns the core with the scheduler's settable policy applied; every
// input reaches the core through it.
func (s *Scheduler) in() *Core {
	c := &s.core
	c.NumSMs, c.MaxConcurrent, c.CorunFn, c.SplitFn = s.Dev.NumSMs, s.MaxConcurrent, s.CorunFn, s.SplitFn
	return c
}

// Decisions returns the recorded scheduling actions.
func (s *Scheduler) Decisions() []Decision { return s.core.Log.All() }

// Log returns the decision log Decisions reads. It keeps every decision
// unless its Cap is set, before the first Submit, to keep a ring of the most
// recent ones: a run that never reads its decisions keeps one.
func (s *Scheduler) Log() *Log { return &s.core.Log }

// Running returns the number of currently executing kernels.
func (s *Scheduler) Running() int { return s.core.Running() }

// Queued returns the number of kernels waiting for resources.
func (s *Scheduler) Queued() int { return len(s.core.queue) }

// Submit hands a kernel to the scheduler. onDone fires when the kernel
// completes, with its final metrics. taskSize <= 0 selects
// engine.DefaultTaskSize.
func (s *Scheduler) Submit(spec *kern.Spec, taskSize int, onDone func(vtime.Time, engine.Metrics)) error {
	if taskSize <= 0 {
		taskSize = engine.DefaultTaskSize
	}
	pr, err := s.Prof.Get(spec)
	if err != nil {
		return fmt.Errorf("sched: profiling %q: %w", spec.Name, err)
	}
	en := s.newEntry(spec, taskSize, pr, onDone)
	if err := s.in().Arrive(s.Eng.Clock.Now(), &en.job); err != nil {
		// The core dropped the job; nothing else holds the entry.
		s.reuse(en)
		return err
	}
	return nil
}

// simDriver is the Scheduler seen as the core's Driver.
type simDriver Scheduler

func (d *simDriver) Launch(j *Job, lo, hi int, vanilla bool) error {
	s, en := (*Scheduler)(d), j.Owner.(*entry)
	opts := engine.LaunchOpts{Mode: engine.SlateSched, TaskSize: en.taskSize, SMLow: lo, SMHigh: hi}
	if vanilla {
		opts = engine.LaunchOpts{Mode: engine.HardwareSched, TaskSize: en.taskSize}
	}
	if en.handle != nil {
		// A requeued job's evicted handle: nothing reads it again.
		s.Eng.Release(en.handle)
	}
	h, err := s.Eng.Launch(en.spec, opts)
	en.handle = h // nil on failure: a failed launch reports zero metrics
	if err != nil {
		return err
	}
	s.Eng.OnComplete(h, en.completeFn)
	s.watch(en, lo, hi)
	return nil
}

func (d *simDriver) Resize(j *Job, lo, hi int) error {
	return d.Eng.Resize(j.Owner.(*entry).handle, lo, hi)
}

func (d *simDriver) Evict(j *Job) error {
	_, err := d.Eng.Evict(j.Owner.(*entry).handle)
	return err
}

// Finish reports j's final metrics and hands its handle back to the engine
// and the entry to the free list: the core holds no finished job.
func (d *simDriver) Finish(now vtime.Time, j *Job) {
	en := j.Owner.(*entry)
	var m engine.Metrics
	if en.handle != nil {
		m = en.handle.Metrics()
		d.Eng.Release(en.handle)
		en.handle = nil
	}
	if en.onDone != nil {
		en.onDone(now, m)
	}
	(*Scheduler)(d).reuse(en)
}

func (d *simDriver) ArmGrow() {
	d.CancelGrow()
	d.pendingGrow = d.Eng.Clock.After(vtime.FromSeconds(d.GrowGraceSeconds), d.growFn)
}

func (d *simDriver) CancelGrow() {
	if d.pendingGrow != nil {
		d.Eng.Clock.Cancel(d.pendingGrow)
		d.pendingGrow = nil
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ANTTPredictCorun returns a profile-level corun policy that implements the
// paper's §III-B complementarity definition directly: share the device only
// if the predicted concurrent speeds at the optimizer's split — after
// discounting for shared-bus contention between the partners' measured
// DRAM demands — sum to more than serialization plus a margin. It agrees
// with Table I on the five evaluation workloads and closes its blind spot
// on pairs of linearly-scaling kernels (for which corun is a wash).
func ANTTPredictCorun(s *Scheduler, margin float64) func(a, b *profile.Profile) bool {
	return func(a, b *profile.Profile) bool {
		sA := SplitFor(s.Dev.NumSMs, a, b)
		spA := a.SpeedAt(sA)
		spB := b.SpeedAt(s.Dev.NumSMs - sA)
		// Bus contention: if the pair's combined DRAM demand at those
		// speeds exceeds the corun bus ceiling, both slow proportionally.
		demand := a.DRAMBW*spA + b.DRAMBW*spB
		ceiling := s.Dev.DRAM.EffectivePeak() / 1e9 * s.Dev.DRAM.CorunEff()
		if demand > ceiling && demand > 0 {
			scale := ceiling / demand
			spA *= scale
			spB *= scale
		}
		return spA+spB > 1+margin
	}
}

// SplitFor sizes the partition of numSMs between a running kernel (low
// range) and an arrival (high range): choose the split minimizing the worst
// predicted slowdown, using each kernel's measured SM-scaling profile.
func SplitFor(numSMs int, a, b *profile.Profile) int {
	best, bestScore := numSMs/2, 1e18
	for sA := 3; sA <= numSMs-3; sA++ {
		spA, spB := a.SpeedAt(sA), b.SpeedAt(numSMs-sA)
		if spA <= 0 || spB <= 0 {
			continue
		}
		score := 1 / spA
		if 1/spB > score {
			score = 1 / spB
		}
		if score < bestScore {
			bestScore = score
			best = sA
		}
	}
	return best
}
