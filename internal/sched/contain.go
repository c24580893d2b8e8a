package sched

import (
	"slate/internal/engine"
	"slate/internal/vtime"
)

// This file implements workload-level containment: the scheduler arms an
// engine watchdog on every launch, and the core evicts kernels that stall
// or vastly overrun their profile-predicted runtime, requeues them with
// aging so neither the offender nor innocent queued work can starve,
// re-launches offenders solo under a hard deadline, and — after repeated
// strikes — quarantines their profile so future launches run through the
// vanilla hardware-scheduler path and never again hold a Slate partition.
// It is the software-scheduling intervention the paper's block-granular
// dispatch makes possible and the hardware leftover policy cannot offer
// (§III-§IV).

// DefaultAgingBound is the queue-aging bound Contain installs when given
// none, and the one the host daemon's executor always runs with: how long a
// waiter may be passed over before the core prioritizes it. The daemon's
// fleet-wide overload shed reuses it (as wall-clock time), so "shedding
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

// EnableContainment arms the watchdog, eviction and quarantine machinery,
// and the core's queue aging (Core.Contain). Call it before the first
// Submit.
func (s *Scheduler) EnableContainment(agingBound vtime.Duration) {
	s.core.Contain(agingBound)
	s.watchdog = engine.NewWatchdog(s.Eng)
	s.watchdog.Interval = checkInterval
	s.watchdog.StallChecks = stallChecks
	s.watchdog.OnViolation = s.onViolation
}

// Contain turns on the strike ladder and queue aging: no arrival or younger
// waiter may jump ahead of a waiter older than agingBound (<= 0 selects
// DefaultAgingBound), and the next idle window is reserved for it.
func (c *Core) Contain(agingBound vtime.Duration) {
	if agingBound <= 0 {
		agingBound = DefaultAgingBound
	}
	c.agingBound = agingBound
	c.strikes = map[string]int{}
}

// Quarantined reports whether a kernel's profile has been quarantined.
func (s *Scheduler) Quarantined(kernel string) bool { return s.core.strikes[kernel] >= maxStrikes }

// corunEligible reports whether a job may share the device at all.
// Unprofiled and vanilla launches run alone, and so do offenders on
// probation (≥1 strike) and quarantined kernels, so a misbehaving kernel
// can never take a co-runner down with it again.
func (c *Core) corunEligible(j *Job) bool {
	return j.Prof != nil && !j.Vanilla && c.strikes[j.Name] == 0
}

// oldestAged returns the longest-waiting queued job that has exceeded the
// aging bound, or nil. Without containment there is no aging (the seed
// scheduler's FIFO-with-scan behavior is unchanged).
func (c *Core) oldestAged(now vtime.Time) *Job {
	if c.agingBound == 0 {
		return nil
	}
	var oldest *Job
	for _, j := range c.queue {
		if now.Sub(j.enqueuedAt) >= c.agingBound && (oldest == nil || j.enqueuedAt < oldest.enqueuedAt) {
			oldest = j
		}
	}
	return oldest
}

// watch arms the watchdog for an entry launched on lo..hi: its overrun
// budget is the profile-predicted duration on that range, times
// overrunFactor — on probation too, where no interference excuses it.
func (s *Scheduler) watch(en *entry, lo, hi int) {
	if s.watchdog != nil {
		sp := max(en.job.Prof.SpeedAt(hi-lo+1), 0.05)
		s.watchdog.Watch(en.handle, max(vtime.FromSeconds(en.job.Prof.SoloSec/sp*overrunFactor), minBudget))
	}
}

// onViolation is the watchdog callback: the core evicts the offender and
// decides its future. A handle no longer running is a stale watch.
func (s *Scheduler) onViolation(now vtime.Time, h *engine.Handle, reason string) {
	for _, j := range s.core.running {
		if j.Owner.(*entry).handle == h {
			s.in().Violation(now, j, reason)
			return
		}
	}
}

// StallRunning freezes the named running kernel for d of virtual time — the
// scheduler-level fault-injection hook the overload chaos driver uses to
// manufacture runaways deterministically. It reports whether a matching
// running kernel was found.
func (s *Scheduler) StallRunning(kernel string, d vtime.Duration) bool {
	for _, j := range s.core.running {
		if h := j.Owner.(*entry).handle; j.Name == kernel && !h.Done() && s.Eng.Stall(h, d) == nil {
			return true
		}
	}
	return false
}
