package sched

import (
	"testing"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/vtime"
)

func fabProfile(class policy.Class, speed10, dramGBs float64) *profile.Profile {
	return &profile.Profile{Class: class, Speed10: speed10, DRAMBW: dramGBs, SoloSec: 0.002}
}

func TestANTTPredictCorunDirect(t *testing.T) {
	r := newRig()
	pred := ANTTPredictCorun(r.sched, 0.10)

	// Memory-saturating + light partner: speeds sum ≫ 1 → corun.
	bs := fabProfile(policy.MM, 1.0, 400)
	rg := fabProfile(policy.LC, 1.0, 70)
	if !pred(bs, rg) {
		t.Fatal("BS-RG-like pair refused")
	}
	// Two linearly-scaling kernels: speeds sum ≈ 1 → solo.
	km := fabProfile(policy.MC, 0.33, 60)
	if pred(km, fabProfile(policy.MC, 0.33, 60)) {
		t.Fatal("linear self-pair accepted; predicted sum ≈ 1")
	}
	// Two bus-saturating kernels: the contention discount kills it.
	tr := fabProfile(policy.HM, 1.0, 470)
	if pred(bs, tr) {
		t.Fatal("two bus-saturating kernels accepted; contention ignored")
	}
}

func TestCorunHookPrecedence(t *testing.T) {
	r := newRig()
	a := fabProfile(policy.HM, 1, 400)
	b := fabProfile(policy.HM, 1, 400)
	// Default: Table I says H_M × H_M solo.
	if r.sched.in().corunProfiles(a, b) {
		t.Fatal("table decision wrong")
	}
	// The hook overrides.
	r.sched.CorunFn = func(*profile.Profile, *profile.Profile) bool { return true }
	if !r.sched.in().corunProfiles(a, b) {
		t.Fatal("CorunFn ignored")
	}
}

func TestSplitFnClamped(t *testing.T) {
	r := newRig()
	a := fabProfile(policy.MM, 1, 400)
	b := fabProfile(policy.LC, 1, 70)
	n := r.sched.Dev.NumSMs
	negative := func(*profile.Profile, *profile.Profile) int { return -5 }
	if got := layoutFor(nil, n, []*profile.Profile{a, b}, negative); got[0] != 1 || got[1] != n-1 {
		t.Fatalf("negative split laid out as %v, want [1 %d]", got, n-1)
	}
	oversized := func(*profile.Profile, *profile.Profile) int { return 99 }
	if got := layoutFor(nil, n, []*profile.Profile{a, b}, oversized); got[0] != n-1 || got[1] != 1 {
		t.Fatalf("oversized split laid out as %v, want [%d 1]", got, n-1)
	}
}

// Three-way corun with one early finisher: the survivors repartition the
// freed SMs between them (regrowSurvivors).
func TestThreeWaySurvivorsRegrow(t *testing.T) {
	r := threeWayRig()
	var handles []*engine.Handle
	submit := func(spec *kern.Spec) *engine.Handle {
		if err := r.sched.Submit(spec, 10, nil); err != nil {
			t.Fatal(err)
		}
		h := r.sched.core.running[len(r.sched.core.running)-1].Owner.(*entry).handle
		handles = append(handles, h)
		return h
	}
	submit(lowK("long1", 9000))
	submit(lowK("long2", 9000))
	submit(lowK("short", 300)) // finishes far earlier
	if r.sched.Running() != 3 {
		t.Fatalf("running = %d", r.sched.Running())
	}
	r.run(t)
	// After "short" completes, the survivors repartition the device: a
	// survivor whose target range equals its current one stays put
	// (sticky), but the freed top-of-device SMs must be reclaimed by a
	// grow reaching SM 29 before the next completion.
	var shortDone, reclaimed vtime.Time
	for _, d := range r.sched.Decisions() {
		if d.Kernel == "short" && d.Action == "complete" {
			shortDone = d.At
		}
		if d.Action == "grow" && d.SMHigh == r.sched.Dev.NumSMs-1 && reclaimed == 0 && shortDone > 0 {
			reclaimed = d.At
		}
	}
	if shortDone == 0 || reclaimed == 0 {
		t.Fatalf("freed SMs never reclaimed; decisions %+v", r.sched.Decisions())
	}
	if gap := reclaimed.Sub(shortDone).Seconds(); gap > 0.001 {
		t.Fatalf("reclaim took %.3fms after completion; want within the grace window", gap*1e3)
	}
	// Final coverage of the last survivor ends at the device edge.
	for _, h := range handles {
		if !h.Done() {
			t.Fatal("kernel incomplete")
		}
	}
}

func TestAbsHelper(t *testing.T) {
	if abs(-3) != 3 || abs(4) != 4 || abs(0) != 0 {
		t.Fatal("abs broken")
	}
}
