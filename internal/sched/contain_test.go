package sched

import (
	"testing"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// stallForever re-stalls the named kernel every millisecond until stop is
// flagged, so each relaunch of the offender is driven back into the
// watchdog no matter how many times the scheduler retries it.
func stallForever(r *rig, kernel string, stop *bool) {
	var poll func(vtime.Time)
	poll = func(vtime.Time) {
		if *stop {
			return
		}
		r.sched.StallRunning(kernel, 10*vtime.Second)
		r.clk.After(vtime.Millisecond, poll)
	}
	r.clk.After(vtime.Millisecond, poll)
}

// The full strike ladder: a kernel that stalls on every launch is evicted
// and requeued, quarantined at MaxStrikes (relaunched vanilla), and finally
// abandoned with partial metrics when it misbehaves even there — the
// submitter always hears back exactly once, and the experiment terminates.
func TestStrikeLadderEvictQuarantineAbandon(t *testing.T) {
	r := newRig()
	r.sched.EnableContainment(0)

	doneCount := 0
	stop := false
	err := r.sched.Submit(computeK("stuck", 48000), 10, func(_ vtime.Time, m engine.Metrics) {
		doneCount++
		stop = true
	})
	if err != nil {
		t.Fatal(err)
	}
	stallForever(r, "stuck", &stop)
	r.run(t)

	if doneCount != 1 {
		t.Fatalf("onDone fired %d times, want exactly 1", doneCount)
	}
	want := []string{"solo", "evict", "requeue", "solo", "evict", "quarantine", "requeue", "vanilla", "evict", "abandon"}
	got := actions(r.sched, "stuck")
	if len(got) != len(want) {
		t.Fatalf("decisions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decisions = %v, want %v", got, want)
		}
	}
	if !r.sched.Quarantined("stuck") {
		t.Fatal("offender not quarantined")
	}
	if s := r.sched.core.strikes["stuck"]; s != 3 {
		t.Fatalf("strikes = %d, want 3", s)
	}
	if r.sched.Running() != 0 || r.sched.Queued() != 0 {
		t.Fatalf("scheduler not drained: running=%d queued=%d", r.sched.Running(), r.sched.Queued())
	}
	if r.eng.Running() != 0 {
		t.Fatal("engine not drained")
	}
}

// A stalled kernel is evicted and its innocent co-runner completes — the
// acceptance scenario. The offender is retried solo afterwards and, left
// alone, finishes too; one completion callback each.
func TestEvictedOffenderCoRunnerCompletes(t *testing.T) {
	r := newRig()
	r.sched.EnableContainment(0)

	finished := map[string]int{}
	submit := func(spec *kern.Spec) {
		name := spec.Name
		if err := r.sched.Submit(spec, 10, func(vtime.Time, engine.Metrics) {
			finished[name]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	submit(memK("mem", 4800))
	submit(lowK("low", 960))
	if r.sched.Running() != 2 {
		t.Fatalf("running = %d, want 2 (corun)", r.sched.Running())
	}
	// Stall mem once, mid-corun; it is evicted and never re-stalled, so its
	// solo retry succeeds.
	r.clk.After(vtime.Millisecond, func(vtime.Time) {
		if !r.sched.StallRunning("mem", 10*vtime.Second) {
			t.Error("mem was not running to stall")
		}
	})
	r.run(t)

	if finished["low"] != 1 {
		t.Fatal("co-runner did not complete after the eviction")
	}
	if finished["mem"] != 1 {
		t.Fatal("evicted offender's retry did not complete")
	}
	got := actions(r.sched, "mem")
	want := []string{"solo", "evict", "requeue", "solo", "complete"}
	if len(got) != len(want) {
		t.Fatalf("mem decisions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mem decisions = %v, want %v", got, want)
		}
	}
	// One strike puts the offender on probation: solo-only, not quarantined.
	if r.sched.core.strikes["mem"] != 1 || r.sched.Quarantined("mem") {
		t.Fatalf("strikes=%d quarantined=%v, want 1/false", r.sched.core.strikes["mem"], r.sched.Quarantined("mem"))
	}
}

// A stale profile is the realistic runaway: a kernel whose data-dependent
// behavior drifts far from its calibration run gives the watchdog a wildly
// under-predicted budget. (The old trap — resubmitting a larger grid under
// a cached name — no longer exists: the profiler is content-addressed, see
// TestSameNameLargerGridGetsFreshProfile.) The overrun path must ride the
// same ladder to quarantine and abandonment.
func TestStaleProfileOverrunQuarantines(t *testing.T) {
	r := newRig()
	r.sched.EnableContainment(0)

	var small bool
	if err := r.sched.Submit(computeK("k", 2400), 10, func(vtime.Time, engine.Metrics) {
		small = true
	}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if !small {
		t.Fatal("calibration run did not complete")
	}

	// Simulate post-calibration drift: the cached profile now claims the
	// kernel is 100× faster than it really is, so the budget under-predicts
	// by 100× and the overrun factor (8×) cannot absorb it.
	pr, err := r.sched.Prof.Get(computeK("k", 2400))
	if err != nil {
		t.Fatal(err)
	}
	pr.SoloSec /= 100

	doneCount := 0
	if err := r.sched.Submit(computeK("k", 2400), 10, func(vtime.Time, engine.Metrics) {
		doneCount++
	}); err != nil {
		t.Fatal(err)
	}
	r.run(t)

	if doneCount != 1 {
		t.Fatalf("onDone fired %d times, want exactly 1", doneCount)
	}
	evicts := 0
	for _, d := range r.sched.Decisions() {
		if d.Kernel == "k" && d.Action == "evict" {
			if d.Reason != "overrun" {
				t.Fatalf("evict reason = %q, want overrun", d.Reason)
			}
			evicts++
		}
	}
	if evicts != 3 {
		t.Fatalf("evictions = %d, want 3 (strike ladder)", evicts)
	}
	if !r.sched.Quarantined("k") {
		t.Fatal("overrunning kernel not quarantined")
	}
	if r.sched.Running() != 0 || r.sched.Queued() != 0 {
		t.Fatal("scheduler not drained")
	}
}

// Regression for the name-keyed profile cache: resubmitting a 10× larger
// grid under an already-profiled name used to inherit the small grid's
// profile, under-predict the budget, and get the innocent kernel evicted as
// a runaway. Content addressing re-measures the new grid, so both runs
// complete untouched by the watchdog.
func TestSameNameLargerGridGetsFreshProfile(t *testing.T) {
	r := newRig()
	r.sched.EnableContainment(0)

	for _, blocks := range []int{2400, 24000} {
		done := false
		if err := r.sched.Submit(computeK("k", blocks), 10, func(vtime.Time, engine.Metrics) {
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		r.run(t)
		if !done {
			t.Fatalf("%d-block run did not complete", blocks)
		}
	}
	for _, d := range r.sched.Decisions() {
		if d.Action == "evict" || d.Action == "abandon" {
			t.Fatalf("correctly profiled kernel hit the strike ladder: %+v", d)
		}
	}
}

// Aging bound: once a queued kernel has waited past AgingBound, a newly
// arriving complementary kernel may not jump ahead of it — it queues, and
// the aged waiter takes the next idle window.
func TestAgedWaiterBlocksQueueJumping(t *testing.T) {
	r := newRig()
	r.sched.EnableContainment(vtime.Millisecond)

	finished := map[string]int{}
	track := func(name string) func(vtime.Time, engine.Metrics) {
		return func(vtime.Time, engine.Metrics) { finished[name]++ }
	}
	if err := r.sched.Submit(memK("m1", 4800), 10, track("m1")); err != nil {
		t.Fatal(err)
	}
	// m2 is H_M like m1: not complementary, so it queues and ages.
	if err := r.sched.Submit(memK("m2", 2400), 10, track("m2")); err != nil {
		t.Fatal(err)
	}
	// low IS complementary with m1 and would corun instantly — but by 2ms
	// m2 has aged past the bound, so low must wait its turn.
	r.clk.At(vtime.Time(2*vtime.Millisecond), func(vtime.Time) {
		if err := r.sched.Submit(lowK("low", 96), 10, track("low")); err != nil {
			t.Error(err)
		}
		if r.sched.Running() != 1 {
			t.Errorf("running = %d after low's arrival, want 1 (no queue jump)", r.sched.Running())
		}
	})
	r.run(t)

	for _, k := range []string{"m1", "m2", "low"} {
		if finished[k] != 1 {
			t.Fatalf("%s finished %d times, want 1", k, finished[k])
		}
	}
	if got := actions(r.sched, "low"); got[0] != "queue" {
		t.Fatalf("low decisions = %v, want queue first (aged m2 holds the window)", got)
	}
	// m2 (the aged waiter) starts before low does.
	started := func(k string) int {
		for i, d := range r.sched.Decisions() {
			if d.Kernel == k && (d.Action == "solo" || d.Action == "corun" || d.Action == "dequeue") {
				return i
			}
		}
		return -1
	}
	if started("m2") == -1 || started("low") == -1 || started("m2") > started("low") {
		t.Fatalf("aged m2 (idx %d) did not start before low (idx %d)", started("m2"), started("low"))
	}
}
