// Package sched implements Slate's workload-aware kernel scheduler
// (§III-B, §III-C and Fig. 4): kernels arriving from client sessions are
// profiled on first sight, paired with a running kernel when Table I calls
// them complementary, granted a disjoint SM partition sized from their
// measured SM-scaling profiles, and dynamically resized when partners
// arrive or complete.
package sched

import (
	"fmt"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// Decision records one scheduling action, for traces and tests.
type Decision struct {
	At     vtime.Time
	Kernel string
	// Action is "solo", "corun", "queue", "grow", "dequeue", "complete", or —
	// with containment enabled — "evict", "requeue", "quarantine", "vanilla",
	// or "abandon".
	Action string
	// SMLow and SMHigh are the designated range for launch/resize actions.
	SMLow, SMHigh int
	// Partner is the co-running kernel, if any.
	Partner string
	// Reason annotates containment actions ("stall", "overrun", strike
	// counts, "quarantined").
	Reason string
}

// Scheduler is the daemon-side kernel scheduler. It is single-threaded by
// construction: all entry points run inside virtual-clock callbacks.
type Scheduler struct {
	Dev  *device.Device
	Eng  *engine.Engine
	Prof *profile.Profiler

	// MaxConcurrent bounds spatial sharing; the paper evaluates pairs.
	MaxConcurrent int
	// DefaultTaskSize is the SLATE_ITERS grouping used when the submission
	// does not specify one.
	DefaultTaskSize int
	// GrowGraceSeconds delays the survivor's grow after a partner kernel
	// completes: looped applications relaunch within tens of microseconds,
	// and growing into SMs that are about to be reclaimed would thrash the
	// retreat/relaunch machinery on every iteration.
	GrowGraceSeconds float64
	// CorunFn decides whether two workload classes may share the device;
	// nil selects Table I (policy.Corun). Ablations substitute always/never
	// variants here.
	CorunFn func(running, arrival policy.Class) bool
	// CorunProfiledFn, when set, takes precedence over CorunFn and decides
	// from full profiles rather than classes — e.g. the ANTT-predictive
	// policy that implements §III-B's complementarity definition directly.
	CorunProfiledFn func(running, arrival *profile.Profile) bool
	// SplitFn sizes the partition for a corun (SMs granted to the running
	// kernel); nil selects the measured-scaling minimax optimizer, SplitFor.
	SplitFn func(running, arrival *profile.Profile) int

	running     []*entry
	queue       []*entry
	decisions   []Decision
	pendingGrow *vtime.Event

	// Containment state (nil/empty unless EnableContainment was called).
	watchdog  *engine.Watchdog
	contain   ContainConfig
	offenders map[string]*offender
}

type entry struct {
	spec     *kern.Spec
	taskSize int
	prof     *profile.Profile
	handle   *engine.Handle
	onDone   func(vtime.Time, engine.Metrics)
	// enqueuedAt is when the entry last entered the queue (aging clock).
	enqueuedAt vtime.Time
	queued     bool
}

// New constructs a scheduler driving the given engine.
func New(dev *device.Device, eng *engine.Engine, prof *profile.Profiler) *Scheduler {
	return &Scheduler{
		Dev:              dev,
		Eng:              eng,
		Prof:             prof,
		MaxConcurrent:    2,
		DefaultTaskSize:  engine.DefaultTaskSize,
		GrowGraceSeconds: 200e-6,
	}
}

// Decisions returns the recorded scheduling actions.
func (s *Scheduler) Decisions() []Decision { return s.decisions }

// Running returns the number of currently executing kernels.
func (s *Scheduler) Running() int { return len(s.running) }

// Queued returns the number of kernels waiting for resources.
func (s *Scheduler) Queued() int { return len(s.queue) }

// Submit hands a kernel to the scheduler. onDone fires when the kernel
// completes, with its final metrics. taskSize <= 0 selects the default.
func (s *Scheduler) Submit(spec *kern.Spec, taskSize int, onDone func(vtime.Time, engine.Metrics)) error {
	if taskSize <= 0 {
		taskSize = s.DefaultTaskSize
	}
	pr, err := s.Prof.Get(spec)
	if err != nil {
		return fmt.Errorf("sched: profiling %q: %w", spec.Name, err)
	}
	en := &entry{spec: spec, taskSize: taskSize, prof: pr, onDone: onDone}

	now := s.Eng.Clock.Now()
	// A fresh arrival supersedes any pending survivor grow.
	if s.pendingGrow != nil {
		s.Eng.Clock.Cancel(s.pendingGrow)
		s.pendingGrow = nil
	}
	// Aging: once a queued kernel has waited past the aging bound, no
	// arrival may jump ahead of it — new work queues behind it so the
	// starved kernel takes the next idle window.
	if aged := s.oldestAged(now); aged != nil && len(s.running) > 0 {
		s.enqueue(now, en)
		return nil
	}
	switch {
	case len(s.running) == 0:
		if aged := s.oldestAged(now); aged != nil {
			// An aged waiter owns the idle device; the arrival queues.
			s.enqueue(now, en)
			s.unqueue(aged)
			if err := s.dispatch(now, aged); err != nil && aged.onDone != nil {
				aged.onDone(now, engine.Metrics{})
			}
			return nil
		}
		return s.dispatch(now, en)
	case len(s.running) == 1 && s.MaxConcurrent >= 2:
		r := s.running[0]
		if s.corunEligible(en) && s.corunProfiles(r.prof, en.prof) {
			return s.launchCorun(now, r, en)
		}
		s.enqueue(now, en)
		return nil
	case len(s.running) < s.MaxConcurrent:
		// N-way spatial sharing: admit only if complementary to every
		// running kernel.
		if s.corunEligible(en) && s.corunsWithAll(en.prof) {
			return s.admitNWay(now, en)
		}
		s.enqueue(now, en)
		return nil
	default:
		s.enqueue(now, en)
		return nil
	}
}

func (s *Scheduler) enqueue(now vtime.Time, en *entry) {
	en.enqueuedAt = now
	en.queued = true
	s.queue = append(s.queue, en)
	s.record(Decision{At: now, Kernel: en.spec.Name, Action: "queue"})
}

func (s *Scheduler) record(d Decision) { s.decisions = append(s.decisions, d) }

// dispatch launches an entry that has the device to itself: through the
// normal Slate solo path, or — for quarantined offenders — the vanilla
// hardware-scheduler path.
func (s *Scheduler) dispatch(now vtime.Time, en *entry) error {
	en.queued = false
	if s.isQuarantined(en.spec.Name) {
		return s.launchVanilla(now, en)
	}
	return s.launchSolo(now, en)
}

// unqueue removes an entry from the wait queue, if present.
func (s *Scheduler) unqueue(en *entry) {
	for i, e := range s.queue {
		if e == en {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	en.queued = false
}

// launchSolo runs a kernel on the entire device, then looks for a
// complementary partner in the queue (Fig. 4: examine the next kernel, then
// the rest of the queue).
func (s *Scheduler) launchSolo(now vtime.Time, en *entry) error {
	h, err := s.Eng.Launch(en.spec, engine.LaunchOpts{
		Mode: engine.SlateSched, TaskSize: en.taskSize,
		SMLow: 0, SMHigh: s.Dev.NumSMs - 1,
	})
	if err != nil {
		return err
	}
	en.handle = h
	s.running = append(s.running, en)
	s.record(Decision{At: now, Kernel: en.spec.Name, Action: "solo", SMLow: 0, SMHigh: s.Dev.NumSMs - 1})
	s.Eng.OnComplete(h, func(t vtime.Time) { s.onComplete(t, en) })
	s.watch(en)
	s.tryPairFromQueue(now, en)
	return nil
}

// launchCorun partitions the device between the running kernel r and the
// arrival en: r shrinks to the low range, en launches on the high range.
// If r already sits at (or near) the target partition from a previous
// corun, the partition is reused without a resize — the sticky-partition
// optimization that keeps looped kernel streams from thrashing.
func (s *Scheduler) launchCorun(now vtime.Time, r, en *entry) error {
	sR := s.split(r.prof, en.prof)
	if lo, hi := r.handle.SMRange(); lo == 0 && hi < s.Dev.NumSMs-1 && abs(hi-(sR-1)) <= 2 {
		sR = hi + 1 // keep the existing partition
	} else if err := s.Eng.Resize(r.handle, 0, sR-1); err != nil {
		return fmt.Errorf("sched: shrinking %q: %w", r.spec.Name, err)
	}
	h, err := s.Eng.Launch(en.spec, engine.LaunchOpts{
		Mode: engine.SlateSched, TaskSize: en.taskSize,
		SMLow: sR, SMHigh: s.Dev.NumSMs - 1,
	})
	if err != nil {
		// Roll the partner back to the full device.
		_ = s.Eng.Resize(r.handle, 0, s.Dev.NumSMs-1)
		return err
	}
	en.handle = h
	s.running = append(s.running, en)
	s.record(Decision{
		At: now, Kernel: en.spec.Name, Action: "corun",
		SMLow: sR, SMHigh: s.Dev.NumSMs - 1, Partner: r.spec.Name,
	})
	s.Eng.OnComplete(h, func(t vtime.Time) { s.onComplete(t, en) })
	s.watch(en)
	return nil
}

// tryPairFromQueue scans the queue for the first kernel complementary to
// the running one and coruns it. An aged waiter takes precedence: if it can
// corun it is chosen regardless of queue position, and if it cannot, nobody
// is paired — the next idle window belongs to it.
func (s *Scheduler) tryPairFromQueue(now vtime.Time, running *entry) {
	if len(s.running) >= s.MaxConcurrent {
		return
	}
	if aged := s.oldestAged(now); aged != nil {
		if !s.corunEligible(aged) || !s.corunProfiles(running.prof, aged.prof) {
			return
		}
		s.unqueue(aged)
		s.record(Decision{At: now, Kernel: aged.spec.Name, Action: "dequeue", Partner: running.spec.Name, Reason: "aged"})
		if err := s.launchCorun(now, running, aged); err != nil {
			s.requeueFront(aged)
		}
		return
	}
	for i, cand := range s.queue {
		if s.corunEligible(cand) && s.corunProfiles(running.prof, cand.prof) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			cand.queued = false
			s.record(Decision{At: now, Kernel: cand.spec.Name, Action: "dequeue", Partner: running.spec.Name})
			if err := s.launchCorun(now, running, cand); err != nil {
				// Could not corun after all; put it back at the front.
				s.requeueFront(cand)
			}
			return
		}
	}
}

// requeueFront reinserts an entry at the head of the queue, preserving its
// original aging clock.
func (s *Scheduler) requeueFront(en *entry) {
	en.queued = true
	s.queue = append([]*entry{en}, s.queue...)
}

// onComplete handles a kernel's completion: notify the owner, grow the
// surviving partner to claim the freed SMs (§III-C), and admit queued work.
func (s *Scheduler) onComplete(now vtime.Time, done *entry) {
	for i, e := range s.running {
		if e == done {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.unwatch(done)
	lo, hi := done.handle.SMRange()
	s.record(Decision{At: now, Kernel: done.spec.Name, Action: "complete", SMLow: lo, SMHigh: hi})
	if done.onDone != nil {
		done.onDone(now, done.handle.Metrics())
	}
	s.afterDeparture(now)
}

// afterDeparture redistributes the device after a kernel leaves the running
// set — by completion or by eviction: dequeue waiting work when the device
// idles, otherwise let the survivors grow into the freed SMs.
func (s *Scheduler) afterDeparture(now vtime.Time) {
	switch len(s.running) {
	case 0:
		// Oldest first: the queue is arrival-ordered, so the head is the
		// longest waiter and the aging bound holds.
		if len(s.queue) > 0 {
			next := s.queue[0]
			s.queue = s.queue[1:]
			if err := s.dispatch(now, next); err != nil && next.onDone != nil {
				next.onDone(now, engine.Metrics{})
			}
		}
	default:
		// A queued complementary kernel takes the freed SMs immediately;
		// otherwise the survivors grow after a short grace window, so that
		// a looped partner relaunching within microseconds reclaims its
		// partition without a retreat/relaunch cycle.
		surv := s.running[0]
		if len(s.running) == 1 && s.queueHasPartner(surv) {
			s.tryPairFromQueue(now, surv)
			return
		}
		nRunning := len(s.running)
		if s.pendingGrow != nil {
			s.Eng.Clock.Cancel(s.pendingGrow)
		}
		s.pendingGrow = s.Eng.Clock.After(vtime.FromSeconds(s.GrowGraceSeconds), func(t vtime.Time) {
			s.pendingGrow = nil
			if len(s.running) != nRunning {
				return
			}
			if nRunning == 1 {
				if s.running[0] != surv || surv.handle.Done() {
					return
				}
				low, high := 0, s.Dev.NumSMs-1
				if err := s.Eng.Resize(surv.handle, low, high); err == nil {
					s.record(Decision{At: t, Kernel: surv.spec.Name, Action: "grow", SMLow: low, SMHigh: high})
				}
				return
			}
			s.regrowSurvivors(t)
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (s *Scheduler) queueHasPartner(running *entry) bool {
	for _, cand := range s.queue {
		if s.corunEligible(cand) && s.corunProfiles(running.prof, cand.prof) {
			return true
		}
	}
	return false
}

func (s *Scheduler) corun(a, b policy.Class) bool {
	if s.CorunFn != nil {
		return s.CorunFn(a, b)
	}
	return policy.Corun(a, b)
}

// corunProfiles applies the profile-level hook when present, else the
// class-level decision.
func (s *Scheduler) corunProfiles(a, b *profile.Profile) bool {
	if s.CorunProfiledFn != nil {
		return s.CorunProfiledFn(a, b)
	}
	return s.corun(a.Class, b.Class)
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

func (s *Scheduler) split(a, b *profile.Profile) int {
	sR := SplitFor(s.Dev.NumSMs, a, b)
	if s.SplitFn != nil {
		sR = s.SplitFn(a, b)
	}
	if sR < 1 {
		sR = 1
	}
	if sR > s.Dev.NumSMs-1 {
		sR = s.Dev.NumSMs - 1
	}
	return sR
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
