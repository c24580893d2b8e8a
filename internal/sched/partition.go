package sched

import (
	"fmt"

	"slate/internal/profile"
	"slate/internal/vtime"
)

// This file partitions the device between co-running kernels: one
// contiguous SM range per kernel, sized from the kernels' measured
// SM-scaling profiles. A pair — the paper's evaluated case — is the
// two-kernel case of the one layout; three or more kernels (MaxConcurrent
// ≥ 3, a natural extension the paper leaves open) share by waterfill.

// layoutFor is the one partition policy: it sizes one contiguous range per
// kernel for numSMs SMs shared by kernels with the given profiles, in order,
// into dst's backing array when it has room.
// Two kernels get the minimax split (SplitFor, or splitFn when set), clamped
// so each keeps an SM. Otherwise everyone starts at the 2-SM floor and the
// remaining SMs go, one at a time, to whichever kernel the profiles predict
// is currently slowed the most. The admission core sizes through it for
// both of its drivers.
func layoutFor(dst []int, numSMs int, profs []*profile.Profile, splitFn func(running, arrival *profile.Profile) int) []int {
	n := len(profs)
	if n == 2 {
		var sA int
		if splitFn != nil {
			sA = splitFn(profs[0], profs[1])
		} else {
			sA = SplitFor(numSMs, profs[0], profs[1])
		}
		sA = min(max(sA, 1), numSMs-1)
		return append(dst[:0], sA, numSMs-sA)
	}
	widths := dst[:0]
	if n == 0 {
		return widths
	}
	floor := 2
	if floor*n > numSMs {
		floor = max(numSMs/n, 1)
	}
	used := 0
	for range n {
		widths = append(widths, floor)
		used += floor
	}
	for used < numSMs {
		worst, worstSlow := 0, -1.0
		for i, p := range profs {
			sp := p.SpeedAt(widths[i])
			if sp <= 0 {
				sp = 1e-9
			}
			slow := 1 / sp
			if slow > worstSlow {
				worstSlow, worst = slow, i
			}
		}
		widths[worst]++
		used++
	}
	return widths
}

// layoutCap is the number of partitions an admission sizes on the stack.
const layoutCap = 4

// layout sizes the partitions of the device by layoutFor, into dst, for the
// running jobs followed by arrival when it is not nil.
func (c *Core) layout(dst []int, running []*Job, arrival *Job) []int {
	var buf [layoutCap]*profile.Profile
	profs := buf[:0]
	for _, j := range running {
		profs = append(profs, j.Prof)
	}
	if arrival != nil {
		profs = append(profs, arrival.Prof)
	}
	return layoutFor(dst, c.NumSMs, profs, c.SplitFn)
}

// admitCorun is the one corun admission: it repartitions the device for
// running ∪ {j}. Running jobs are resized to their new contiguous ranges
// (sticky within ±2 units) and the arrival launches on the final range,
// absorbing any rounding. If the arrival fails to launch, the running jobs
// regrow.
func (c *Core) admitCorun(now vtime.Time, j *Job) error {
	var buf [layoutCap]int
	widths := c.layout(buf[:0], c.running, j)

	// Assign contiguous ranges in order; keep a running job's current range
	// when it is within the sticky tolerance, propagating the boundary so
	// ranges stay disjoint.
	lo := 0
	for i, e := range c.running {
		hi := lo + widths[i] - 1
		if e.lo == lo && abs(e.hi-hi) <= 2 && e.hi < c.NumSMs-1 {
			lo = e.hi + 1 // sticky: keep the existing boundary
			continue
		}
		if err := c.Driver.Resize(e, lo, hi); err != nil {
			return fmt.Errorf("sched: repartitioning %q: %w", e.Name, err)
		}
		e.lo, e.hi = lo, hi
		lo = hi + 1
	}
	hi := c.NumSMs - 1
	if err := c.Driver.Launch(j, lo, hi, false); err != nil {
		c.regrowSurvivors(now)
		return err
	}
	d := Decision{At: now, Kernel: j.Name, Action: "corun", SMLow: lo, SMHigh: hi}
	for i, r := range c.running {
		if i > 0 {
			d.Partner += "+"
		}
		d.Partner += r.Name
	}
	j.lo, j.hi = lo, hi
	c.running = append(c.running, j)
	c.record(d)
	return nil
}

// regrowSurvivors repartitions the device across the current running set:
// the one grow, after a departure and after a failed admission. A lone
// survivor takes the whole device.
func (c *Core) regrowSurvivors(now vtime.Time) {
	if len(c.running) == 0 {
		return
	}
	var buf [layoutCap]int
	widths := c.layout(buf[:0], c.running, nil)
	lo := 0
	for i, e := range c.running {
		hi := lo + widths[i] - 1
		if i == len(c.running)-1 {
			hi = c.NumSMs - 1
		}
		if e.lo != lo || e.hi != hi {
			if err := c.Driver.Resize(e, lo, hi); err == nil {
				e.lo, e.hi = lo, hi
				c.record(Decision{At: now, Kernel: e.Name, Action: "grow", SMLow: lo, SMHigh: hi})
			}
		}
		lo = hi + 1
	}
}
