package engine

import (
	"testing"

	"slate/internal/device"
	"slate/internal/vtime"
)

// TestSteadyStateRecomputeDoesNotAllocate is the allocation gate for the
// event loop's hot path: with every handle's locality resolved and nobody
// finishing, a recompute — progress integration, SM allocation, the rate
// fixpoint and the completion/checkpoint reschedule — allocates nothing. At a
// fixed instant every recompute after the first is a rate-memo hit, and the
// test checks that it is: a hit encodes its key into reused scratch and looks
// it up without allocating.
// rescheduleEveryEvent forces the cancel-and-reschedule of every pending
// event, which the reschedule skip would otherwise hide from the count.
func TestSteadyStateRecomputeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dev := device.TitanXp()
	model := NewTraceModel(dev)
	model.MaxAccesses = 20_000
	for _, rescheduleEvery := range []bool{false, true} {
		clk := vtime.NewClock()
		e := New(dev, clk, model)
		e.rescheduleEveryEvent = rescheduleEvery
		specs := paritySpecs()
		launch := func(i int, opts LaunchOpts) {
			if _, err := e.Launch(specs[i], opts); err != nil {
				t.Fatal(err)
			}
		}
		launch(0, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: 9})
		launch(2, LaunchOpts{Mode: SlateSched, TaskSize: 4, SMLow: 10, SMHigh: 19})
		launch(3, LaunchOpts{Mode: HardwareSched})
		launch(4, LaunchOpts{Mode: HardwareSched}) // leftover policy: no SMs yet

		// Step to a later instant so progress integration has work to do, but
		// not far enough for anyone to finish.
		clk.After(1000, func(vtime.Time) {})
		clk.Run(1)
		if e.Running() != 4 {
			t.Fatalf("%d kernels running, want 4", e.Running())
		}
		now := clk.Now()
		solved, reused := e.memo.solved, e.memo.reused
		if allocs := testing.AllocsPerRun(200, func() { e.recompute(now) }); allocs != 0 {
			t.Errorf("rescheduleEveryEvent=%v: steady-state recompute allocates %v times per call, want 0", rescheduleEvery, allocs)
		}
		if e.memo.solved != solved || e.memo.reused < reused+200 {
			t.Errorf("rescheduleEveryEvent=%v: memo solved %d→%d, reused %d→%d; want every recompute a hit",
				rescheduleEvery, solved, e.memo.solved, reused, e.memo.reused)
		}
	}
}
