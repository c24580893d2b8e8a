package sched

import (
	"fmt"

	"slate/internal/engine"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// This file partitions the device between co-running kernels: one
// contiguous SM range per kernel, sized from the kernels' measured
// SM-scaling profiles. A pair — the paper's evaluated case — is the
// two-kernel case of the one layout; three or more kernels (MaxConcurrent
// ≥ 3, a natural extension the paper leaves open) share by waterfill.

// Layout is the one partition policy: it sizes one contiguous range per
// kernel for numSMs SMs shared by kernels with the given profiles, in order.
// Two kernels get the minimax split (SplitFor, or splitFn when set), clamped
// so each keeps an SM. Otherwise everyone starts at the 2-SM floor and the
// remaining SMs go, one at a time, to whichever kernel the profiles predict
// is currently slowed the most. The simulator's Scheduler and the host
// daemon's executor both size through it.
func Layout(numSMs int, profs []*profile.Profile, splitFn func(running, arrival *profile.Profile) int) []int {
	n := len(profs)
	if n == 2 {
		var sA int
		if splitFn != nil {
			sA = splitFn(profs[0], profs[1])
		} else {
			sA = SplitFor(numSMs, profs[0], profs[1])
		}
		sA = min(max(sA, 1), numSMs-1)
		return []int{sA, numSMs - sA}
	}
	widths := make([]int, n)
	if n == 0 {
		return widths
	}
	floor := 2
	if floor*n > numSMs {
		floor = max(numSMs/n, 1)
	}
	used := 0
	for i := range widths {
		widths[i] = floor
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

// layout sizes the entries' partitions of the device by Layout.
func (s *Scheduler) layout(entries []*entry) []int {
	profs := make([]*profile.Profile, len(entries))
	for i, e := range entries {
		profs[i] = e.prof
	}
	return Layout(s.Dev.NumSMs, profs, s.SplitFn)
}

// admitCorun is the one corun admission: it repartitions the device for
// running ∪ {en}. Running kernels are resized to their new contiguous
// ranges (sticky within ±2 SMs) and the arrival launches on the final
// range. If the arrival fails to launch, the running kernels regrow.
func (s *Scheduler) admitCorun(now vtime.Time, en *entry) error {
	entries := append(append([]*entry{}, s.running...), en)
	widths := s.layout(entries)

	// Assign contiguous ranges in order; keep a running kernel's current
	// range when it is within the sticky tolerance, propagating the
	// boundary so ranges stay disjoint.
	lo := 0
	for i, e := range entries {
		targetHi := lo + widths[i] - 1
		if i == len(entries)-1 {
			targetHi = s.Dev.NumSMs - 1 // the arrival absorbs rounding
		}
		if e == en {
			h, err := s.Eng.Launch(en.spec, engine.LaunchOpts{
				Mode: engine.SlateSched, TaskSize: en.taskSize,
				SMLow: lo, SMHigh: targetHi,
			})
			if err != nil {
				s.regrowSurvivors(now)
				return err
			}
			en.handle = h
			s.running = append(s.running, en)
			s.record(Decision{
				At: now, Kernel: en.spec.Name, Action: "corun",
				SMLow: lo, SMHigh: targetHi, Partner: partnersOf(entries, en),
			})
			s.Eng.OnComplete(h, func(t vtime.Time) { s.onComplete(t, en) })
			s.watch(en)
			lo = targetHi + 1
			continue
		}
		curLo, curHi := e.handle.SMRange()
		if curLo == lo && abs(curHi-targetHi) <= 2 && curHi < s.Dev.NumSMs-1 {
			lo = curHi + 1 // sticky: keep the existing boundary
			continue
		}
		if err := s.Eng.Resize(e.handle, lo, targetHi); err != nil {
			return fmt.Errorf("sched: repartitioning %q: %w", e.spec.Name, err)
		}
		lo = targetHi + 1
	}
	return nil
}

// partnersOf names the co-runners of en for the decision log.
func partnersOf(entries []*entry, en *entry) string {
	out := ""
	for _, e := range entries {
		if e == en {
			continue
		}
		if out != "" {
			out += "+"
		}
		out += e.spec.Name
	}
	return out
}

// corunsWithAll reports whether the arrival is complementary to every
// running kernel (the pairwise policy applied N ways).
func (s *Scheduler) corunsWithAll(arrival *profile.Profile) bool {
	for _, r := range s.running {
		if !s.corunProfiles(r.prof, arrival) {
			return false
		}
	}
	return len(s.running) > 0
}

// regrowSurvivors repartitions the device across the current running set:
// the one grow, after a departure and after a failed admission. A lone
// survivor takes the whole device.
func (s *Scheduler) regrowSurvivors(now vtime.Time) {
	if len(s.running) == 0 {
		return
	}
	widths := s.layout(s.running)
	lo := 0
	for i, e := range s.running {
		hi := lo + widths[i] - 1
		if i == len(s.running)-1 {
			hi = s.Dev.NumSMs - 1
		}
		curLo, curHi := e.handle.SMRange()
		if curLo != lo || curHi != hi {
			if err := s.Eng.Resize(e.handle, lo, hi); err == nil {
				s.record(Decision{At: now, Kernel: e.spec.Name, Action: "grow", SMLow: lo, SMHigh: hi})
			}
		}
		lo = hi + 1
	}
}
