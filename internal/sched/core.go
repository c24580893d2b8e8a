package sched

import (
	"fmt"
	"slices"

	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// Job is one kernel launch as the admission core sees it.
type Job struct {
	Name string
	// Prof is the kernel's profile; nil marks an unprofiled kernel (a host
	// first run). Unprofiled and Vanilla jobs run alone, and nothing joins
	// them.
	Prof    *profile.Profile
	Vanilla bool
	// Owner is the driver's own record of the launch.
	Owner any

	lo, hi     int        // the granted range, while running
	enqueuedAt vtime.Time // the aging clock, while queued
}

// Driver carries out the core's decisions: on the engine in the simulator
// (Scheduler), on worker goroutines in the host daemon's executor.
type Driver interface {
	// Launch starts j on units lo..hi, on the vanilla hardware path when
	// vanilla is set.
	Launch(j *Job, lo, hi int, vanilla bool) error
	Resize(j *Job, lo, hi int) error
	Evict(j *Job) error
	// Finish tells j's submitter that j is over: completed, abandoned, or
	// failed to launch from the queue.
	Finish(now vtime.Time, j *Job)
	// ArmGrow schedules GraceExpired after the grow grace, replacing any
	// pending one; CancelGrow drops it.
	ArmGrow()
	CancelGrow()
}

// Core is Slate's admission state machine (§III-B, §III-C, Fig. 4), with no
// engine and no clock: the FIFO queue with its partner scan, corun
// admission and sizing, the survivors' grow, queue aging and the
// containment ladder. Its inputs are Arrive, Depart, GraceExpired and
// Violation; its output is Log. It is not safe for concurrent use.
type Core struct {
	// NumSMs is the number of units partitioned (SMs, or host workers);
	// MaxConcurrent, CorunFn and SplitFn are the Scheduler fields.
	NumSMs        int
	MaxConcurrent int
	CorunFn       func(running, arrival *profile.Profile) bool
	SplitFn       func(running, arrival *profile.Profile) int
	// Abandon ends every evicted launch instead of requeueing it: a host
	// launch cannot be re-executed, because its blocks already ran.
	Abandon bool
	Log     Log
	Driver  Driver

	running, queue []*Job
	growArmed      bool
	growN          int // running-set size when the grace was armed
	// Containment (zero unless Contain was called): the aging bound and
	// each kernel's evictions; maxStrikes of them quarantine it.
	agingBound vtime.Duration
	strikes    map[string]int
}

// Running returns the number of running jobs.
func (c *Core) Running() int { return len(c.running) }

// SetProfile gives every waiting, unprofiled job of the named kernel its
// freshly learned profile, so it waits and launches as profiled.
func (c *Core) SetProfile(name string, p *profile.Profile) {
	for _, j := range c.queue {
		if j.Name == name && j.Prof == nil {
			j.Prof = p
		}
	}
}

func (c *Core) record(d Decision) { c.Log.Add(d) }

func (c *Core) isQuarantined(kernel string) bool { return c.strikes[kernel] >= maxStrikes }

// Arrive admits a new job: alone on an idle device, beside running jobs it
// complements, or into the queue. An error is the job's own failed launch;
// the job is then dropped.
func (c *Core) Arrive(now vtime.Time, j *Job) error {
	// A fresh arrival supersedes any pending survivor grow.
	if c.growArmed {
		c.growArmed = false
		c.Driver.CancelGrow()
	}
	// Once a waiter has aged past the bound, no arrival may jump ahead of
	// it: new work queues behind it, and an idle device goes to it.
	if aged := c.oldestAged(now); aged != nil {
		c.enqueue(now, j, "queue", "")
		if len(c.running) == 0 {
			c.queue = without(c.queue, aged)
			c.startQueued(now, aged)
		}
		return nil
	}
	switch {
	case len(c.running) == 0:
		return c.dispatch(now, j)
	case len(c.running) < c.MaxConcurrent && c.corunsWithAll(j):
		return c.admitCorun(now, j)
	}
	c.enqueue(now, j, "queue", "")
	return nil
}

// Depart takes a completed job out of the running set, tells its submitter,
// and hands the freed units on.
func (c *Core) Depart(now vtime.Time, j *Job) {
	c.running = without(c.running, j)
	c.record(Decision{At: now, Kernel: j.Name, Action: "complete", SMLow: j.lo, SMHigh: j.hi})
	c.Driver.Finish(now, j)
	c.afterDeparture(now)
}

// GraceExpired lets the survivors of the last departure grow into the freed
// units, unless the running set changed meanwhile.
func (c *Core) GraceExpired(now vtime.Time) {
	if c.growArmed {
		c.growArmed = false
		if len(c.running) == c.growN {
			c.regrowSurvivors(now)
		}
	}
}

// Violation evicts a running job that stalled or overran, strikes its
// kernel and decides its future — requeue (with aging), quarantine, or
// abandon. A co-runner inherits the freed units through the normal
// departure path. Containment must be on.
func (c *Core) Violation(now vtime.Time, j *Job, reason string) {
	if err := c.Driver.Evict(j); err != nil {
		return
	}
	c.running = without(c.running, j)
	c.record(Decision{At: now, Kernel: j.Name, Action: "evict", SMLow: j.lo, SMHigh: j.hi, Reason: reason})
	// Misbehaving even on the vanilla path ends the launch, as does any
	// eviction the driver cannot re-execute.
	abandon := c.isQuarantined(j.Name) || c.Abandon
	c.strikes[j.Name]++
	n := c.strikes[j.Name]
	if n == maxStrikes {
		c.record(Decision{At: now, Kernel: j.Name, Action: "quarantine",
			Reason: fmt.Sprintf("%d strikes (%s)", n, reason)})
	}
	if abandon {
		c.record(Decision{At: now, Kernel: j.Name, Action: "abandon", Reason: reason})
		c.Driver.Finish(now, j)
	} else {
		// Back of the queue with a fresh aging clock: it relaunches solo on
		// probation, and aging keeps healthier arrivals from starving it.
		c.enqueue(now, j, "requeue", fmt.Sprintf("strike %d", n))
	}
	c.afterDeparture(now)
}

func (c *Core) enqueue(now vtime.Time, j *Job, action, reason string) {
	j.enqueuedAt = now
	c.queue = append(c.queue, j)
	c.record(Decision{At: now, Kernel: j.Name, Action: action, Reason: reason})
}

// without removes j from list, if present, in place: the backing array
// stays the list's, so the running set and the queue stop allocating once
// they have held their most jobs.
func without(list []*Job, j *Job) []*Job {
	if i := slices.Index(list, j); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// dispatch launches a job that has the device to itself: solo, then a
// partner scan of the queue (Fig. 4), or — vanilla launches and quarantined
// offenders — alone on the vanilla hardware-scheduler path.
func (c *Core) dispatch(now vtime.Time, j *Job) error {
	quarantined := c.isQuarantined(j.Name)
	hi := c.NumSMs - 1
	if err := c.Driver.Launch(j, 0, hi, j.Vanilla || quarantined); err != nil {
		return err
	}
	j.lo, j.hi = 0, hi
	c.running = append(c.running, j)
	d := Decision{At: now, Kernel: j.Name, Action: "solo", SMHigh: hi}
	switch {
	case quarantined:
		d.Action, d.Reason = "vanilla", "quarantined"
	case j.Vanilla:
		d.Action, d.Reason = "vanilla", "fallback"
	}
	c.record(d)
	if d.Action == "solo" {
		c.tryPairFromQueue(now, j)
	}
	return nil
}

// startQueued dispatches a job off the queue; if it cannot launch, it is over.
func (c *Core) startQueued(now vtime.Time, j *Job) {
	if err := c.dispatch(now, j); err != nil {
		c.Driver.Finish(now, j)
	}
}

// tryPairFromQueue coruns the first queued job complementary to the
// running one. An aged waiter takes precedence: if it can corun it is
// chosen regardless of queue position, and if it cannot, nobody is paired —
// the next idle window belongs to it.
func (c *Core) tryPairFromQueue(now vtime.Time, running *Job) {
	if len(c.running) >= c.MaxConcurrent {
		return
	}
	cand, reason := c.oldestAged(now), "aged"
	if cand == nil {
		cand, reason = c.queuedPartner(running), ""
	}
	if cand == nil || !c.pairs(running, cand) {
		return
	}
	c.queue = without(c.queue, cand)
	c.record(Decision{At: now, Kernel: cand.Name, Action: "dequeue", Partner: running.Name, Reason: reason})
	if err := c.admitCorun(now, cand); err != nil {
		// Back at the front, keeping its aging clock.
		c.queue = slices.Insert(c.queue, 0, cand)
	}
}

// afterDeparture hands on freed units: an idle device takes the queue head
// (the longest waiter), a lone survivor a complementary waiter at once;
// otherwise the survivors grow after a short grace, so a looped partner
// relaunching within microseconds reclaims its partition without a
// retreat/relaunch cycle.
func (c *Core) afterDeparture(now vtime.Time) {
	switch {
	case len(c.running) == 0:
		if len(c.queue) > 0 {
			next := c.queue[0]
			c.queue = slices.Delete(c.queue, 0, 1)
			c.startQueued(now, next)
		}
	case len(c.running) == 1 && c.queuedPartner(c.running[0]) != nil:
		c.tryPairFromQueue(now, c.running[0])
	default:
		c.growArmed, c.growN = true, len(c.running)
		c.Driver.ArmGrow()
	}
}

// queuedPartner returns the first queued job that may corun with r, or nil.
func (c *Core) queuedPartner(r *Job) *Job {
	for _, cand := range c.queue {
		if c.pairs(r, cand) {
			return cand
		}
	}
	return nil
}

// corunsWithAll reports whether the arrival may join every running job.
func (c *Core) corunsWithAll(arrival *Job) bool {
	for _, r := range c.running {
		if !c.pairs(r, arrival) {
			return false
		}
	}
	return len(c.running) > 0
}

// pairs reports whether arrival a may share the device with running job r:
// both must be corun-eligible, and CorunFn — else Table I over the two
// classes — must pair their profiles.
func (c *Core) pairs(r, a *Job) bool {
	return c.corunEligible(r) && c.corunEligible(a) && c.corunProfiles(r.Prof, a.Prof)
}

func (c *Core) corunProfiles(running, arrival *profile.Profile) bool {
	if c.CorunFn != nil {
		return c.CorunFn(running, arrival)
	}
	return policy.Corun(running.Class, arrival.Class)
}
