package engine

import (
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
	"slate/workloads"
)

// TestRateMemoEngages pins that the rate memo serves the event loop: a
// complementary Slate pair (SGEMM, Transpose) on split SM ranges, each
// relaunched as it completes, for one simulated second on one engine. Each
// kernel holds its fixed range and has active workers at one of two values
// (full waves, last wave), and the running set is one of {SGEMM}, {Transpose}
// or either order of both, so at most 2+2+4+4 = 12 distinct keys exist. The
// loop must solve no key twice and reuse at least 99 % of its solves; a key
// term that changes on every event, such as blocksDone, fails it.
func TestRateMemoEngages(t *testing.T) {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	e := New(dev, clk, NewTraceModel(dev))
	end := vtime.Time(0).Add(vtime.FromSeconds(1))
	mid := dev.NumSMs / 2

	launches := 0
	var loop func(*kern.Spec, LaunchOpts)
	loop = func(spec *kern.Spec, opts LaunchOpts) {
		h, err := e.Launch(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		launches++
		e.OnComplete(h, func(now vtime.Time) {
			if now < end {
				loop(spec, opts)
			}
		})
	}
	loop(workloads.SGEMMApp().Kernel, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: mid - 1})
	loop(workloads.TransposeApp().Kernel, LaunchOpts{Mode: SlateSched, SMLow: mid, SMHigh: dev.NumSMs - 1})
	run(t, clk)

	solved, reused := e.memo.solved, e.memo.reused
	calls := solved + reused
	t.Logf("%d launches, %d rate solves: %d solved, %d reused, %d distinct keys", launches, calls, solved, reused, len(e.memo.index))
	if clk.Now() < end || launches < 20 {
		t.Fatalf("loop ran %d launches to %v, want past %v", launches, clk.Now(), end)
	}
	if distinct := uint64(len(e.memo.index)); solved > distinct || distinct > 12 {
		t.Errorf("solved %d fixpoints over %d distinct keys, want each of at most 12 keys solved once", solved, distinct)
	}
	if reused*100 < calls*99 {
		t.Errorf("memo reused %d of %d rate solves, want >= 99 %%", reused, calls)
	}
}
