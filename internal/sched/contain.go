package sched

import (
	"fmt"

	"slate/internal/engine"
	"slate/internal/vtime"
)

// This file implements workload-level containment: the scheduler arms an
// engine watchdog on every launch, evicts kernels that stall or vastly
// overrun their profile-predicted runtime, requeues them with aging so
// neither the offender nor innocent queued work can starve, re-launches
// offenders solo under a hard deadline, and — after repeated strikes —
// quarantines their profile so future launches run through the vanilla
// hardware-scheduler path and never again hold a Slate partition. It is the
// software-scheduling intervention the paper's block-granular dispatch makes
// possible and the hardware leftover policy cannot offer (§III-§IV).

// DefaultAgingBound is the queue-aging bound EnableContainment installs
// when given none: how long a waiter may be passed over before the
// scheduler prioritizes it. It is exported because the daemon's fleet-wide
// overload shed reuses the same bound (as wall-clock time) so "shedding
// never starves an aged session" is the scheduler's own no-starvation
// invariant, extended daemon- and fleet-wide.
const DefaultAgingBound = 100 * vtime.Millisecond

// The containment machinery's fixed settings.
const (
	// checkInterval is the watchdog poll period in virtual time.
	checkInterval = 500 * vtime.Microsecond
	// stallChecks is how many consecutive zero-progress polls constitute a
	// stall.
	stallChecks = 4
	// overrunFactor bounds a kernel's runtime at factor × its
	// profile-predicted duration on its granted SM range; the slack absorbs
	// corun interference and profile noise.
	overrunFactor = 8
	// minBudget floors the overrun deadline so short kernels are not
	// evicted on poll granularity.
	minBudget = 5 * vtime.Millisecond
	// maxStrikes is the eviction count at which a kernel's profile is
	// quarantined. One further strike after quarantine abandons the launch,
	// reporting partial metrics to the submitter.
	maxStrikes = 2
)

// offender tracks a kernel's containment record across launches, keyed by
// kernel name (the same key the profiler uses — a runaway usually is a
// stale or adversarial profile).
type offender struct {
	strikes     int
	quarantined bool
}

// EnableContainment arms the watchdog/eviction/quarantine machinery. The
// aging bound is how long a queued kernel may wait before it is
// prioritized: no arrival or younger queue entry may jump ahead of an aged
// waiter, and the next idle window is reserved for it; agingBound <= 0
// selects DefaultAgingBound. Call it before the first Submit.
func (s *Scheduler) EnableContainment(agingBound vtime.Duration) {
	if agingBound <= 0 {
		agingBound = DefaultAgingBound
	}
	s.agingBound = agingBound
	s.offenders = map[string]*offender{}
	s.watchdog = engine.NewWatchdog(s.Eng)
	s.watchdog.Interval = checkInterval
	s.watchdog.StallChecks = stallChecks
	s.watchdog.OnViolation = s.onViolation
}

// Strikes returns a kernel's eviction count.
func (s *Scheduler) Strikes(kernel string) int {
	if o, ok := s.offenders[kernel]; ok {
		return o.strikes
	}
	return 0
}

// Quarantined reports whether a kernel's profile has been quarantined.
func (s *Scheduler) Quarantined(kernel string) bool { return s.isQuarantined(kernel) }

func (s *Scheduler) isQuarantined(kernel string) bool {
	if s.offenders == nil {
		return false
	}
	o, ok := s.offenders[kernel]
	return ok && o.quarantined
}

func (s *Scheduler) offenderOf(kernel string) *offender {
	o, ok := s.offenders[kernel]
	if !ok {
		o = &offender{}
		s.offenders[kernel] = o
	}
	return o
}

// corunEligible reports whether an entry may share the device: offenders on
// probation (≥1 strike) and quarantined kernels always run alone, so a
// misbehaving kernel can never take a co-runner down with it again.
func (s *Scheduler) corunEligible(en *entry) bool {
	if s.offenders == nil {
		return true
	}
	o, ok := s.offenders[en.spec.Name]
	return !ok || (o.strikes == 0 && !o.quarantined)
}

// oldestAged returns the longest-waiting queue entry that has exceeded the
// aging bound, or nil. Containment must be enabled; without it there is no
// aging (the seed scheduler's FIFO-with-scan behavior is unchanged).
func (s *Scheduler) oldestAged(now vtime.Time) *entry {
	if s.watchdog == nil || len(s.queue) == 0 {
		return nil
	}
	var oldest *entry
	for _, en := range s.queue {
		if now.Sub(en.enqueuedAt) >= s.agingBound {
			if oldest == nil || en.enqueuedAt < oldest.enqueuedAt {
				oldest = en
			}
		}
	}
	return oldest
}

// watch arms the watchdog for a freshly launched entry. The overrun budget
// scales the profile-predicted solo duration by the granted SM range's
// predicted slowdown, times overrunFactor. Kernels on
// probation get the same hard deadline — solo, there is no interference
// left to excuse them.
func (s *Scheduler) watch(en *entry) {
	if s.watchdog == nil || en.handle == nil {
		return
	}
	lo, hi := en.handle.SMRange()
	sp := en.prof.SpeedAt(hi - lo + 1)
	if sp < 0.05 {
		sp = 0.05
	}
	budget := vtime.FromSeconds(en.prof.SoloSec / sp * overrunFactor)
	if budget < minBudget {
		budget = minBudget
	}
	s.watchdog.Watch(en.handle, budget)
}

func (s *Scheduler) unwatch(en *entry) {
	if s.watchdog != nil && en.handle != nil {
		s.watchdog.Unwatch(en.handle)
	}
}

// onViolation is the watchdog callback: evict the offender, strike its
// record, and decide its future — requeue (with aging), quarantine, or
// abandon. The co-runner is untouched; it inherits the freed SMs through
// the normal departure path and completes.
func (s *Scheduler) onViolation(now vtime.Time, h *engine.Handle, reason string) {
	var en *entry
	for _, e := range s.running {
		if e.handle == h {
			en = e
			break
		}
	}
	if en == nil {
		return // already departed; a stale watch
	}
	m, err := s.Eng.Evict(h)
	if err != nil {
		return
	}
	for i, e := range s.running {
		if e == en {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	lo, hi := h.SMRange()
	s.record(Decision{At: now, Kernel: en.spec.Name, Action: "evict", SMLow: lo, SMHigh: hi, Reason: reason})

	o := s.offenderOf(en.spec.Name)
	o.strikes++
	switch {
	case o.quarantined:
		// Misbehaved even on the vanilla path: give up and report the
		// partial metrics so the submitter is never left waiting.
		s.record(Decision{At: now, Kernel: en.spec.Name, Action: "abandon", Reason: reason})
		if en.onDone != nil {
			en.onDone(now, m)
		}
	case o.strikes >= maxStrikes:
		o.quarantined = true
		s.record(Decision{
			At: now, Kernel: en.spec.Name, Action: "quarantine",
			Reason: fmt.Sprintf("%d strikes (%s)", o.strikes, reason),
		})
		s.requeue(now, en)
	default:
		s.requeue(now, en)
	}
	s.afterDeparture(now)
}

// requeue puts an evicted offender at the back of the queue with a fresh
// aging clock: it relaunches from the start (solo, hard deadline) when the
// device next idles, and the aging bound guarantees it is not starved by a
// stream of healthier arrivals.
func (s *Scheduler) requeue(now vtime.Time, en *entry) {
	en.handle = nil
	en.enqueuedAt = now
	en.queued = true
	s.queue = append(s.queue, en)
	s.record(Decision{At: now, Kernel: en.spec.Name, Action: "requeue", Reason: fmt.Sprintf("strike %d", s.Strikes(en.spec.Name))})
}

// launchVanilla runs a quarantined kernel through the stock hardware
// scheduler: no Slate partition, no co-runner, the whole device under the
// leftover policy — it can misbehave without holding a partition hostage.
// The watchdog still applies, so a kernel that stalls even here is evicted
// and abandoned.
func (s *Scheduler) launchVanilla(now vtime.Time, en *entry) error {
	h, err := s.Eng.Launch(en.spec, engine.LaunchOpts{
		Mode: engine.HardwareSched, TaskSize: en.taskSize,
	})
	if err != nil {
		return err
	}
	en.handle = h
	s.running = append(s.running, en)
	s.record(Decision{
		At: now, Kernel: en.spec.Name, Action: "vanilla",
		SMLow: 0, SMHigh: s.Dev.NumSMs - 1, Reason: "quarantined",
	})
	s.Eng.OnComplete(h, func(t vtime.Time) { s.onComplete(t, en) })
	s.watch(en)
	return nil
}

// StallRunning freezes the named running kernel for d of virtual time — the
// scheduler-level fault-injection hook the overload chaos driver uses to
// manufacture runaways deterministically. It reports whether a matching
// running kernel was found.
func (s *Scheduler) StallRunning(kernel string, d vtime.Duration) bool {
	for _, e := range s.running {
		if e.spec.Name == kernel && e.handle != nil && !e.handle.Done() {
			if err := s.Eng.Stall(e.handle, d); err == nil {
				return true
			}
		}
	}
	return false
}
