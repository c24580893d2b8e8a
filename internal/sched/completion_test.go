package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// Property: under randomized seeded arrival orders — with and without
// containment, with and without stall injection — every Submit gets exactly
// one onDone, the queue drains to zero, and the engine ends idle. This is
// the completion-path contract the daemon relies on: a lost callback
// strands a client stream forever.
func TestEveryKernelCompletesExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, withContain := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/contain=%v", seed, withContain)
			t.Run(name, func(t *testing.T) {
				testCompletionProperty(t, seed, withContain)
			})
		}
	}
}

func testCompletionProperty(t *testing.T, seed int64, withContain bool) {
	r := newRig()
	if withContain {
		r.sched.EnableContainment(2 * vtime.Millisecond)
	}
	rng := rand.New(rand.NewSource(seed))

	const n = 12
	completions := map[string]int{}
	var submitted []string
	at := vtime.Time(0)
	for i := 0; i < n; i++ {
		var spec *kern.Spec
		kname := fmt.Sprintf("k%d-%d", seed, i)
		switch rng.Intn(3) {
		case 0:
			spec = memK(kname, 1200+rng.Intn(2400))
		case 1:
			spec = computeK(kname, 1200+rng.Intn(2400))
		default:
			spec = lowK(kname, 48+rng.Intn(96))
		}
		submitted = append(submitted, kname)
		// Arrivals spread over a few ms in randomized bursts.
		at = at.Add(vtime.Duration(rng.Intn(800)) * vtime.Microsecond)
		sp := spec
		r.clk.At(at, func(vtime.Time) {
			if err := r.sched.Submit(sp, 10, func(vtime.Time, engine.Metrics) {
				completions[sp.Name]++
			}); err != nil {
				t.Errorf("submit %s: %v", sp.Name, err)
			}
		})
	}
	if withContain {
		// Inject stalls at random running kernels: evicted work must still
		// deliver exactly one completion, through retry, quarantine, or
		// abandonment.
		stallAt := vtime.Time(0)
		for i := 0; i < 4; i++ {
			stallAt = stallAt.Add(vtime.Duration(500+rng.Intn(1500)) * vtime.Microsecond)
			victim := submitted[rng.Intn(n)]
			r.clk.At(stallAt, func(vtime.Time) {
				r.sched.StallRunning(victim, 10*vtime.Second)
			})
		}
	}
	r.run(t)

	for _, kname := range submitted {
		if completions[kname] != 1 {
			t.Errorf("%s completed %d times, want exactly 1", kname, completions[kname])
		}
	}
	if len(completions) != n {
		t.Errorf("distinct completions = %d, want %d", len(completions), n)
	}
	if r.sched.Queued() != 0 {
		t.Errorf("queue not drained: %d left", r.sched.Queued())
	}
	if r.sched.Running() != 0 {
		t.Errorf("running set not drained: %d left", r.sched.Running())
	}
	if r.eng.Running() != 0 {
		t.Errorf("engine not drained: %d left", r.eng.Running())
	}
}
