package daemon

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/sched"
)

// runStateScript is what one pass of the reuse script observed.
type runStateScript struct {
	errs      []string         // each launch's error, "" for none
	runs      map[string]int   // Executor.Runs per kernel
	blocks    map[string]int64 // blocks each kernel's body executed
	decisions []sched.Decision // At dropped, a profile's solo time dropped
}

// runStateKernel is a spec of the given grid whose body counts its blocks
// into n and then runs body, if any.
func runStateKernel(name string, blocks int, n *atomic.Int64, body func(glob int)) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4, ComputeEff: 0.5,
		Exec: func(glob int) {
			n.Add(1)
			if body != nil {
				body(glob)
			}
		},
	}
}

// waitDecision polls x's log until it holds n decisions of the action.
func waitDecision(t *testing.T, x *Executor, action string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, d := range x.Decisions() {
			if d.Action == action {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %d %q decisions; log %+v", n, action, x.Decisions())
		}
		time.Sleep(time.Millisecond)
	}
}

// runReuseScript drives one executor through normal launches, a first
// (profiling) run, a panicking body, a corun whose arrival retreats the
// running kernel and whose departure grows it back, launches that queue and
// are woken, and a launch abandoned at
// the containment deadline while its body is still running. Every step's
// order is forced, not timed, so two passes make the same decisions. With
// recycle set it also checks, while the abandoned body runs, that its state
// is never handed to a later launch.
func runReuseScript(t *testing.T, recycle bool) runStateScript {
	t.Helper()
	x := NewExecutor(6)
	x.noRecycle = !recycle
	// Everything but "fresh" starts profiled, so classes do not hang on the
	// host's speed.
	for name, class := range map[string]policy.Class{
		"quick": policy.LC, "panicker": policy.LC, "comp": policy.HC, "mem": policy.HM, "wedged": policy.LC,
	} {
		x.RestoreProfile(name, class, 1e-3)
	}
	counts := map[string]*atomic.Int64{}
	counter := func(name string) *atomic.Int64 {
		if counts[name] == nil {
			counts[name] = new(atomic.Int64)
		}
		return counts[name]
	}
	var errs []string
	note := func(err error) {
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			errs = append(errs, "")
		}
	}
	quick := func(k int) {
		for i := 0; i < k; i++ {
			note(x.Run(runStateKernel("quick", 8, counter("quick"), nil), 2))
		}
	}
	freeHolds := func(rs *runState) bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		return slices.Contains(x.free, rs)
	}

	quick(3)
	// A first run, profiled; its body does no work, so it classifies L_C.
	fresh := runStateKernel("fresh", 4, counter("fresh"), nil)
	fresh.FLOPsPerBlock, fresh.L2BytesPerBlock = 0, 0
	note(x.Run(fresh, 1))
	quick(1)

	// A panic at one block: the launch fails with ErrKernelPanic, and the
	// next launch on the recycled state does not see it.
	err := x.Run(runStateKernel("panicker", 8, counter("panicker"), func(glob int) {
		if glob == 3 {
			panic("boom")
		}
	}), 1)
	if !errors.Is(err, ErrKernelPanic) || !strings.Contains(err.Error(), "at block 3") {
		t.Fatalf("panicking launch returned %v, want ErrKernelPanic at block 3", err)
	}
	note(err)
	quick(2)

	// A corun: comp runs alone on all six workers, mem arrives beside it and
	// comp retreats to its half; mem departs and, after the grow grace, comp
	// retreats again to grow back. comp's blocks wait until mem has run a
	// block, and then until the grow is in the log.
	memIn, grown := make(chan struct{}), make(chan struct{})
	var memOnce, compOnce sync.Once
	compIn := make(chan struct{})
	comp := runStateKernel("comp", 600, counter("comp"), func(int) {
		compOnce.Do(func() { close(compIn) })
		<-memIn
		<-grown
	})
	mem := runStateKernel("mem", 600, counter("mem"), func(int) { memOnce.Do(func() { close(memIn) }) })
	var compErr error
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		compErr = x.Run(comp, 4)
	}()
	<-compIn
	note(x.Run(mem, 4))
	waitDecision(t, x, "grow", 1)
	close(grown)
	<-compDone
	note(compErr)
	quick(2)

	// A queued launch, three times: comp holds the pool and quick, which
	// Table I does not pair with it, waits on its task's wake channel until
	// comp departs.
	for i := 0; i < 3; i++ {
		hold, held := make(chan struct{}), make(chan struct{})
		var holdOnce sync.Once
		compDone := make(chan struct{})
		go func() {
			defer close(compDone)
			compErr = x.Run(runStateKernel("comp", 4, counter("comp"), func(int) {
				holdOnce.Do(func() { close(held) })
				<-hold
			}), 1)
		}()
		<-held
		queued := make(chan error)
		go func() { queued <- x.Run(runStateKernel("quick", 8, counter("quick"), nil), 2) }()
		waitDecision(t, x, "queue", i+1)
		close(hold)
		<-compDone
		note(compErr)
		note(<-queued)
	}

	// A launch abandoned at the containment deadline. Its body stays blocked
	// until later launches have run, so its state must stay off the free list
	// — with recycle, the state the launch took is the one a later launch
	// would otherwise pop first.
	x.MaxRunSeconds = 0.05
	var abandoned *runState
	if recycle {
		x.mu.Lock()
		if len(x.free) == 0 {
			x.mu.Unlock()
			t.Fatal("no recycled state before the abandoned launch")
		}
		abandoned = x.free[len(x.free)-1]
		x.mu.Unlock()
	}
	unwedge, wedgedOut := make(chan struct{}), make(chan struct{})
	err = x.Run(runStateKernel("wedged", 1, counter("wedged"), func(int) {
		<-unwedge
		close(wedgedOut)
	}), 4)
	x.MaxRunSeconds = 0 // no later launch can overrun on a slow host
	if !errors.Is(err, ErrKernelTimeout) {
		t.Fatalf("wedged launch returned %v, want ErrKernelTimeout", err)
	}
	note(err)
	for i := 0; i < 4; i++ {
		if recycle && freeHolds(abandoned) {
			t.Fatal("the abandoned launch's state is on the free list while its body still runs")
		}
		quick(1)
	}
	close(unwedge)
	<-wedgedOut
	quick(2)
	if recycle && freeHolds(abandoned) {
		t.Fatal("the abandoned launch's state went back on the free list")
	}

	x.mu.Lock()
	free := len(x.free)
	x.mu.Unlock()
	switch {
	case !recycle && free != 0:
		t.Fatalf("%d states kept with recycling off", free)
	case recycle && (free == 0 || free > 2):
		// Two launches at once at most, so two states serve every launch.
		t.Fatalf("%d states on the free list after a script at most two wide", free)
	}

	out := runStateScript{errs: errs, runs: map[string]int{}, blocks: map[string]int64{}}
	for name, n := range counts {
		out.runs[name] = x.Runs(name)
		out.blocks[name] = n.Load()
	}
	for _, d := range x.Decisions() {
		d.At = 0
		if d.Action == "profile" {
			d.Reason, _, _ = strings.Cut(d.Reason, " solo=")
		}
		out.decisions = append(out.decisions, d)
	}
	return out
}

// Recycling Run's per-launch state changes nothing: the same script run with
// recycling on and off returns the same errors, counts the same runs,
// executes the same blocks and logs the same decisions, and an abandoned
// launch's state never goes back on the free list while its body runs.
func TestExecutorRunStateReuseIsInvisible(t *testing.T) {
	want := runReuseScript(t, false)
	got := runReuseScript(t, true)
	if fmt.Sprint(got.errs) != fmt.Sprint(want.errs) {
		t.Fatalf("errors differ with recycling\n got %q\nwant %q", got.errs, want.errs)
	}
	if fmt.Sprint(got.runs) != fmt.Sprint(want.runs) || fmt.Sprint(got.blocks) != fmt.Sprint(want.blocks) {
		t.Fatalf("runs or blocks differ with recycling\n got %v %v\nwant %v %v", got.runs, got.blocks, want.runs, want.blocks)
	}
	if !slices.Equal(got.decisions, want.decisions) {
		t.Fatalf("decisions differ with recycling\n got %+v\nwant %+v", got.decisions, want.decisions)
	}
	for name, n := range map[string]int64{"quick": 8 * 17, "fresh": 4, "panicker": 8, "comp": 600 + 3*4, "mem": 600, "wedged": 1} {
		if got.blocks[name] != n {
			t.Fatalf("%s executed %d blocks, want %d", name, got.blocks[name], n)
		}
	}
}
