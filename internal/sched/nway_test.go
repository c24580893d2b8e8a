package sched

import (
	"testing"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
	"slate/workloads"
)

// threeWayRig builds a scheduler admitting up to three concurrent kernels.
func threeWayRig() *rig {
	r := newRig()
	r.sched.MaxConcurrent = 3
	return r
}

func TestThreeWayCorun(t *testing.T) {
	r := threeWayRig()
	// Three low-intensity kernels: L_C × L_C coruns pairwise, so all three
	// may share.
	done := map[string]vtime.Time{}
	for _, name := range []string{"l1", "l2", "l3"} {
		name := name
		if err := r.sched.Submit(lowK(name, 4800), 10, func(at vtime.Time, _ engine.Metrics) {
			done[name] = at
		}); err != nil {
			t.Fatal(err)
		}
	}
	if r.sched.Running() != 3 {
		t.Fatalf("running = %d, want 3-way corun", r.sched.Running())
	}
	r.run(t)
	if len(done) != 3 {
		t.Fatalf("finished %d kernels, want 3", len(done))
	}
	// The third kernel's corun decision names both partners.
	found := false
	for _, d := range r.sched.Decisions() {
		if d.Kernel == "l3" && d.Action == "corun" && d.Partner == "l1+l2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("3-way corun decision missing: %+v", r.sched.Decisions())
	}
}

func TestThreeWayRespectsPolicy(t *testing.T) {
	r := threeWayRig()
	// Two memory-bound kernels cannot join a third even at MaxConcurrent 3:
	// H_M × H_M is solo in Table I.
	if err := r.sched.Submit(lowK("low", 4800), 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Submit(memK("m1", 2400), 10, nil); err != nil {
		t.Fatal(err)
	}
	if r.sched.Running() != 2 {
		t.Fatalf("running = %d, want 2", r.sched.Running())
	}
	// m2 coruns with low (H_M×L_C ✓) but not with m1 (H_M×H_M ✗) → queue.
	if err := r.sched.Submit(memK("m2", 2400), 10, nil); err != nil {
		t.Fatal(err)
	}
	if r.sched.Running() != 2 || r.sched.Queued() != 1 {
		t.Fatalf("running=%d queued=%d, want 2/1 (pairwise policy must gate N-way)",
			r.sched.Running(), r.sched.Queued())
	}
	r.run(t)
}

func TestThreeWayPartitionsAreDisjoint(t *testing.T) {
	r := threeWayRig()
	var handles []*engine.Handle
	submit := func(spec *kern.Spec) {
		if err := r.sched.Submit(spec, 10, nil); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, r.sched.core.running[len(r.sched.core.running)-1].Owner.(*entry).handle)
	}
	submit(lowK("a", 9000))
	submit(lowK("b", 9000))
	submit(lowK("c", 9000))
	// Immediately after the third admission, ranges partition [0,29].
	covered := make([]int, 30)
	for _, h := range handles {
		lo, hi := h.SMRange()
		for sm := lo; sm <= hi; sm++ {
			covered[sm]++
		}
	}
	for sm, n := range covered {
		if n != 1 {
			t.Fatalf("SM %d covered %d times; partition not disjoint+complete", sm, n)
		}
	}
	r.run(t)
}

func TestLayoutWaterfill(t *testing.T) {
	r := newRig()
	pm, _ := r.sched.Prof.Get(memK("mem", 2400))
	pc, _ := r.sched.Prof.Get(computeK("cb", 2400))
	widths := r.sched.in().layout(nil, []*Job{{Prof: pm}, {Prof: pc}}, nil)
	if widths[0]+widths[1] != 30 {
		t.Fatalf("widths %v do not sum to 30", widths)
	}
	// The memory kernel is satisfied near the knee; the compute kernel
	// should get the larger share.
	if widths[1] <= widths[0] {
		t.Fatalf("compute kernel got %d SMs vs memory's %d; waterfill should favor the scaler", widths[1], widths[0])
	}
	// Degenerate cases.
	if w := r.sched.in().layout(nil, nil, nil); len(w) != 0 {
		t.Fatal("empty layout should be empty")
	}
	solo := r.sched.in().layout(nil, []*Job{{Prof: pm}}, nil)
	if solo[0] != 30 {
		t.Fatalf("solo layout = %v, want [30]", solo)
	}
}

// Three real applications through the simulated daemon with 3-way sharing
// enabled: everything completes and at least one 3-way corun happens.
func TestThreeWayWithRealWorkloads(t *testing.T) {
	r := threeWayRig()
	// RG (L_C) + RG (L_C) + BS (M_M): pairwise-corunnable in every order
	// RG-RG (corun), RG-BS (corun), BS-RG (corun).
	finished := 0
	cb := func(vtime.Time, engine.Metrics) { finished++ }
	if err := r.sched.Submit(workloads.RG(), 10, cb); err != nil {
		t.Fatal(err)
	}
	rg2 := workloads.RG()
	rg2.Name = "RG2"
	if err := r.sched.Submit(rg2, 10, cb); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Submit(workloads.BS(), 10, cb); err != nil {
		t.Fatal(err)
	}
	if r.sched.Running() != 3 {
		t.Fatalf("running = %d, want 3", r.sched.Running())
	}
	r.run(t)
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
}
