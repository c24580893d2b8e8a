package sched

import (
	"fmt"
	"math/rand"
	"strings"
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

// pooledScenario loops three streams of kernels through the scheduler with
// containment on and a stalled kernel evicted along the way: each stream
// submits its next rep from the last one's onDone, on even reps inside the
// callback and on odd reps a little later. It returns the decision log and
// every completion (time and metrics), formatted, and the number of entries
// the scheduler ever allocated.
func pooledScenario(t *testing.T, seed int64, reuse bool) (string, int) {
	t.Helper()
	r := newRig()
	r.sched.noReuse = !reuse
	r.sched.EnableContainment(2 * vtime.Millisecond)
	rng := rand.New(rand.NewSource(seed))
	const streams, reps = 3, 5
	var out strings.Builder
	submits := 0
	var submit func(s, rep int)
	submit = func(s, rep int) {
		if rep == reps {
			return
		}
		name := fmt.Sprintf("s%d-%d", s, rep)
		blocks := 600 + rng.Intn(2400)
		spec := []*kern.Spec{memK(name, blocks), computeK(name, blocks), lowK(name, 48+rng.Intn(96))}[s]
		submits++
		err := r.sched.Submit(spec, 10, func(at vtime.Time, m engine.Metrics) {
			fmt.Fprintf(&out, "%s %v %+v\n", name, at, m)
			if rep%2 == 0 {
				submit(s, rep+1)
			} else {
				r.clk.After(vtime.Duration(rng.Intn(50))*vtime.Microsecond, func(vtime.Time) { submit(s, rep+1) })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < streams; s++ {
		submit(s, 0)
	}
	r.clk.At(vtime.Time(200+rng.Intn(800))*vtime.Time(vtime.Microsecond), func(vtime.Time) {
		for i := 0; i < streams*reps; i++ { // stall the first running kernel
			if r.sched.StallRunning(fmt.Sprintf("s%d-%d", i%streams, i/streams), 10*vtime.Millisecond) {
				return
			}
		}
	})
	r.run(t)
	if submits != streams*reps {
		t.Fatalf("%d submits, want %d", submits, streams*reps)
	}
	fmt.Fprintf(&out, "%+v\n", r.sched.Decisions())
	return out.String(), len(r.sched.free)
}

// TestEntryReuseIsInvisible: a run whose scheduler reuses finished entries
// — from inside onDone, after an eviction and requeue — equals one that
// allocates a fresh entry per submit, in every decision, completion time
// and metric, and it does reuse them.
func TestEntryReuseIsInvisible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		fresh, _ := pooledScenario(t, seed, false)
		pooled, entries := pooledScenario(t, seed, true)
		if fresh != pooled {
			t.Errorf("seed %d: pooled run differs\nfresh:\n%s\npooled:\n%s", seed, fresh, pooled)
		}
		if !strings.Contains(fresh, "evict") {
			t.Errorf("seed %d: no eviction in the scenario", seed)
		}
		if entries == 0 || entries >= 15 {
			t.Errorf("seed %d: %d entries allocated for 15 submits", seed, entries)
		}
	}
}
