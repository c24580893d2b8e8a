package daemon

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/run"
	"slate/internal/sched"
	"slate/internal/transform"
	"slate/internal/vtime"
	"slate/workloads"
)

// busyKernel returns a spec whose blocks do a little real work and count
// executions.
func busyKernel(name string, blocks int, counter *atomic.Int64, memHeavy bool) *kern.Spec {
	flops, bytes := 1e7, 1e4
	if memHeavy {
		flops, bytes = 1e4, 1e8 // classifies H_M at wall-clock speeds
	}
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(64),
		FLOPsPerBlock: flops, InstrPerBlock: 1e4, L2BytesPerBlock: bytes,
		ComputeEff: 0.5,
		Exec: func(int) {
			counter.Add(1)
			s := 0.0
			for i := 0; i < 2000; i++ {
				s += float64(i)
			}
			_ = s
		},
	}
}

func TestExecutorProfilesThenRuns(t *testing.T) {
	x := NewExecutor(4)
	var n atomic.Int64
	spec := busyKernel("k", 100, &n, false)
	if err := x.Run(spec, 4); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("profiling run executed %d blocks, want 100", n.Load())
	}
	if _, ok := x.Profile("k"); !ok {
		t.Fatal("no profile recorded after first run")
	}
	if err := x.Run(spec, 4); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 200 {
		t.Fatalf("second run executed %d total, want 200", n.Load())
	}
}

func TestExecutorRejectsBodylessKernel(t *testing.T) {
	x := NewExecutor(4)
	spec := &kern.Spec{Name: "nobody", Grid: kern.D1(4), BlockDim: kern.D1(32), ComputeEff: 0.5}
	if err := x.Run(spec, 4); err == nil {
		t.Fatal("kernel without Exec accepted")
	}
}

func TestExecutorConcurrentClientsCompleteExactly(t *testing.T) {
	x := NewExecutor(4)
	var wg sync.WaitGroup
	counts := make([]atomic.Int64, 3)
	const blocks, reps = 400, 4
	for p := 0; p < 3; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := busyKernel(string(rune('a'+p)), blocks, &counts[p], p%2 == 0)
			for r := 0; r < reps; r++ {
				if err := x.Run(spec, 4); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p := range counts {
		if got := counts[p].Load(); got != blocks*reps {
			t.Fatalf("client %d executed %d blocks, want %d", p, got, blocks*reps)
		}
	}
	if x.RunningCount() != 0 {
		t.Fatal("executor leaked running tasks")
	}
}

// SimBackend: injection+compilation are one-time per kernel; communication
// recurs per launch.
func TestSimBackendOverheadAccounting(t *testing.T) {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	model := &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1}
	b := NewSim(dev, clk, model, profile.New(dev, model))

	spec := workloads.BS()
	first := b.LaunchOverheads(spec, 0)
	if first.InjectSec <= 0 {
		t.Fatal("first launch paid no injection cost")
	}
	second := b.LaunchOverheads(spec, 1)
	if second.InjectSec != 0 {
		t.Fatal("second launch re-paid injection; compile cache broken")
	}
	if first.CommSec <= 0 || second.CommSec != first.CommSec {
		t.Fatal("communication cost must recur identically per launch")
	}
	other := b.LaunchOverheads(workloads.GS(), 0)
	if other.InjectSec <= 0 {
		t.Fatal("distinct kernel should pay its own injection")
	}
}

func TestSimBackendRunsAppsThroughScheduler(t *testing.T) {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	model := engine.NewTraceModel(dev)
	b := NewSim(dev, clk, model, profile.New(dev, model))
	bs, _ := workloads.ByCode("BS")
	rg, _ := workloads.ByCode("RG")
	// RG starts earlier (smaller setup/transfers); give it enough reps to
	// still be running when BS's first kernel arrives.
	jobs := []run.Job{{App: bs, Reps: 5}, {App: rg, Reps: 300}}
	rs, err := run.NewDriver(clk, b).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Launches == 0 || r.KernelSec <= 0 {
			t.Fatalf("app %s did not execute: %+v", r.Code, r)
		}
	}
	// The pair is complementary; a corun decision must have been made.
	corun := false
	for _, d := range b.Sched.Decisions() {
		if d.Action == "corun" {
			corun = true
		}
	}
	if !corun {
		t.Fatal("BS-RG never corun under the Slate scheduler")
	}
	// The profiler classified both kernels.
	if p, ok := b.Prof.Lookup("RG"); !ok || p.Class != policy.LC {
		t.Fatalf("RG profile missing or misclassified: %+v", p)
	}
}

// An iterative application (Gaussian elimination's shrinking kernel
// sequence) runs through the Slate pipeline alongside a looped partner:
// every step's kernels are profiled once, and the stream of heterogeneous
// launches neither wedges the scheduler nor starves the partner.
func TestSimBackendIterativeApplication(t *testing.T) {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	model := &engine.StaticModel{DefaultHit: 0.2, DefaultRunBytes: 1 << 20, SlateRunFactor: 1}
	b := NewSim(dev, clk, model, profile.New(dev, model))

	seq := workloads.GaussianModelSequence(48)
	ge := &workloads.App{
		Code: "GE", FullName: "Gaussian elimination (iterative)",
		Kernel:     seq[0],
		InputBytes: 1 << 20, OutputBytes: 1 << 20, HostSetupSeconds: 0.01,
	}
	rg, _ := workloads.ByCode("RG")

	jobs := []run.Job{
		{App: ge, Reps: len(seq), KernelAt: func(rep int) *kern.Spec { return seq[rep] }},
		{App: rg, Reps: 40},
	}
	rs, err := run.NewDriver(clk, b).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Launches != len(seq) {
		t.Fatalf("iterative app launched %d of %d kernels", rs[0].Launches, len(seq))
	}
	if rs[1].Launches != 40 {
		t.Fatalf("partner launched %d of 40", rs[1].Launches)
	}
	// Every distinct kernel content was profiled exactly once: the profiler
	// is content-addressed, so sequence steps sharing geometry and work
	// reuse one measurement instead of re-measuring per step name.
	uniq := map[string]bool{}
	for _, s := range seq {
		uniq[s.Fingerprint()] = true
	}
	if got := b.Prof.Len(); got < len(uniq) {
		t.Fatalf("profiled %d kernel contents, want ≥%d", got, len(uniq))
	}
	if got := b.Prof.Len(); got > len(seq)+1 {
		t.Fatalf("profiled %d kernel contents, want ≤%d (sequence + partner)", got, len(seq)+1)
	}
}

// The executor sizes a corun by sched.Layout: with the host's linear
// scaling profiles, a compute-heavy and a memory-heavy kernel split a pool
// of 6 evenly.
func TestExecutorCorunSplitsByLayout(t *testing.T) {
	x := NewExecutor(6)
	var nLow, nMem atomic.Int64
	low := busyKernel("low-int", 300, &nLow, false)
	memv := busyKernel("mem-heavy", 300, &nMem, true)
	// First runs profile solo.
	if err := x.Run(low, 4); err != nil {
		t.Fatal(err)
	}
	if err := x.Run(memv, 4); err != nil {
		t.Fatal(err)
	}
	if cls, ok := x.Profile("mem-heavy"); !ok || cls.String() != "H_M" {
		t.Fatalf("mem-heavy classified %v", cls)
	}
	// Corun: the compute-classified kernel runs first and the memory-heavy
	// kernel joins (Table I: H_C × H_M → corun); the decision log must
	// show the arrival on the upper half of the pool. Arrival order is
	// forced, not timed: the first kernel's blocks wait until the second has
	// been admitted beside it and run a block of its own.
	lowIn, memIn := make(chan struct{}), make(chan struct{})
	var lowOnce, memOnce sync.Once
	lowLong := busyKernel("low-int", 4000, &nLow, false)
	lowLong.Exec = func(int) {
		lowOnce.Do(func() { close(lowIn) })
		<-memIn
		nLow.Add(1)
	}
	memLong := busyKernel("mem-heavy", 4000, &nMem, true)
	memLong.Exec = func(int) {
		memOnce.Do(func() { close(memIn) })
		nMem.Add(1)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = x.Run(lowLong, 4)
	}()
	go func() {
		defer wg.Done()
		<-lowIn
		_ = x.Run(memLong, 4)
	}()
	wg.Wait()
	// Budget 6 → Layout's 3/3 split: the arrival takes workers 3..5.
	want := sched.Decision{Kernel: "mem-heavy", Action: "corun", SMLow: 3, SMHigh: 5, Partner: "low-int"}
	even := false
	for _, d := range x.Decisions() {
		d.At = 0
		even = even || d == want
	}
	if !even {
		t.Fatalf("no %+v recorded; decisions: %+v", want, x.Decisions())
	}
	if nLow.Load() != 4300 || nMem.Load() != 4300 {
		t.Fatalf("block counts %d/%d, want 4300/4300", nLow.Load(), nMem.Load())
	}
}

// A grace fire that lost the race with a cancel and a re-arm must not grow
// the survivor before the re-armed grace ends. The test drives the core by
// hand, stops the real timer, and calls its handler directly: once just
// before the recorded deadline, once at it.
func TestExecutorStaleGrowFireWaitsForTheDeadline(t *testing.T) {
	x := NewExecutor(6)
	task := func(name string, class policy.Class) *execTask {
		spec := busyKernel(name, 60, new(atomic.Int64), class == policy.HM)
		tr, err := transform.Transform(spec.Grid, 4)
		if err != nil {
			t.Fatal(err)
		}
		task := &execTask{spec: spec, queue: transform.NewQueue(tr)}
		task.job = sched.Job{Name: name, Prof: x.hostProfile(name, class, 1e-3), Owner: task}
		return task
	}
	survivor, first, second := task("compute", policy.HC), task("memory", policy.HM), task("memory2", policy.HM)
	x.mu.Lock()
	x.core.NumSMs, x.core.MaxConcurrent = x.Budget, x.MaxConcurrent
	now := x.now()
	for _, step := range []func() error{
		func() error { return x.core.Arrive(now, &survivor.job) },
		func() error { return x.core.Arrive(now, &first.job) },
		func() error { x.core.Depart(now, &first.job); return nil },  // arms the grace
		func() error { return x.core.Arrive(now, &second.job) },      // cancels it
		func() error { x.core.Depart(now, &second.job); return nil }, // re-arms it
	} {
		if err := step(); err != nil {
			x.mu.Unlock()
			t.Fatal(err)
		}
	}
	x.grow.Stop()
	deadline := x.growAt
	x.mu.Unlock()

	grows := func() (n int) {
		for _, d := range x.Decisions() {
			if d.Action == "grow" {
				n++
			}
		}
		return n
	}
	x.growFired(deadline.Add(-time.Nanosecond))
	if n := grows(); n != 0 {
		t.Fatalf("a fire before the re-armed deadline grew the survivor (%d grows); decisions %+v", n, x.Decisions())
	}
	x.growFired(deadline)
	if n := grows(); n != 1 {
		t.Fatalf("%d grows after the deadline, want 1; decisions %+v", n, x.Decisions())
	}
}

// Three-way sharing on the real executor: three L_C kernels run
// concurrently when MaxConcurrent permits, splitting the pool.
func TestExecutorThreeWay(t *testing.T) {
	x := NewExecutor(6)
	x.MaxConcurrent = 3
	var counts [3]atomic.Int64
	// Declared work small enough that wall-clock profiling lands in L_C
	// (L_C × L_C coruns pairwise).
	lightKernel := func(name string, counter *atomic.Int64) *kern.Spec {
		return &kern.Spec{
			Name: name, Grid: kern.D1(2000), BlockDim: kern.D1(64),
			FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
			ComputeEff: 0.5,
			Exec:       func(int) { counter.Add(1) },
		}
	}
	specs := make([]*kern.Spec, 3)
	for i := 0; i < 3; i++ {
		specs[i] = lightKernel(fmt.Sprintf("three-%d", i), &counts[i])
		// Profile each solo first.
		if err := x.Run(specs[i], 4); err != nil {
			t.Fatal(err)
		}
		if cls, ok := x.Profile(specs[i].Name); !ok || cls.String() != "L_C" {
			t.Fatalf("kernel %d classified %v, want L_C", i, cls)
		}
	}
	var wg sync.WaitGroup
	// Block 0 of each kernel holds its kernel in the running set until all
	// three have been admitted: allRunning latches the first time anyone
	// sees RunningCount() == 3. Without it the test would be hoping three
	// ~30 ms kernels overlap in wall-clock on however many cores the host
	// has; with a plain poll two kernels could see 3 and finish before the
	// third looked. The wait is bounded, so an executor that never admits the
	// third fails the check below instead of hanging.
	var allRunning atomic.Bool
	start := make(chan struct{})
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spec := lightKernel(specs[i].Name, &counts[i])
			spec.Exec = func(glob int) {
				counts[i].Add(1)
				giveUp := time.Now().Add(5 * time.Second)
				for !allRunning.Load() {
					if x.RunningCount() == 3 {
						allRunning.Store(true)
						break
					}
					if glob != 0 || time.Now().After(giveUp) {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				s := 0.0
				for k := 0; k < 30000; k++ {
					s += float64(k)
				}
				_ = s
			}
			if err := x.Run(spec, 4); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range counts {
		if counts[i].Load() != 4000 { // 2000 profile + 2000 corun
			t.Fatalf("kernel %d executed %d blocks, want 4000", i, counts[i].Load())
		}
	}
	if !allRunning.Load() {
		t.Fatal("three kernels were never running together; three-way sharing never engaged")
	}
}

// The decision log is a ring: after 100 000 runs it holds the newest
// decisionLogCap decisions in order, and the fallback count is still exact.
func TestDecisionLogIsBounded(t *testing.T) {
	x := NewExecutor(4)
	noop := func(name string) *kern.Spec {
		return &kern.Spec{
			Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
			FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
			ComputeEff: 0.5,
			Exec:       func(int) {},
		}
	}
	spec := noop("noop")
	const runs, fallbacks = 100000, 3000
	for i := 0; i < runs; i++ {
		if err := x.Run(spec, 4); err != nil {
			t.Fatal(err)
		}
		if i < fallbacks {
			x.NoteFallback("src:k", "inject: boom")
		}
	}
	last := noop("newest")
	for i := 0; i < 2; i++ { // a first run (solo, then profile), then a solo
		if err := x.Run(last, 4); err != nil {
			t.Fatal(err)
		}
	}
	got := x.Decisions()
	if len(got) != decisionLogCap {
		t.Fatalf("log holds %d decisions after %d runs, want its capacity %d", len(got), runs, decisionLogCap)
	}
	for i := range got {
		got[i].At = 0
	}
	launch := func(name, action string) sched.Decision {
		return sched.Decision{Kernel: name, Action: action, SMHigh: 3}
	}
	// newest's first run (solo, profile, complete), then its second run.
	newest, rest := got[len(got)-5:], got[:len(got)-5]
	if newest[0] != launch("newest", "solo") || newest[1].Kernel != "newest" || newest[1].Action != "profile" ||
		!strings.HasPrefix(newest[1].Reason, "class=") || newest[2] != launch("newest", "complete") ||
		newest[3] != launch("newest", "solo") || newest[4] != launch("newest", "complete") {
		t.Fatalf("newest decisions = %+v, want newest's solo, profile, complete, solo and complete last", newest)
	}
	for i, d := range rest {
		want := launch("noop", "complete")
		if (len(rest)-i)%2 == 0 {
			want = launch("noop", "solo")
		}
		if d != want {
			t.Fatalf("kept decision %+v, want the most recent solos and completions (fallbacks and the profile are long gone)", d)
		}
	}
	if x.Fallbacks() != fallbacks {
		t.Fatalf("Fallbacks() = %d past the cap, want exactly %d", x.Fallbacks(), fallbacks)
	}
	if x.Runs("noop") != runs {
		t.Fatalf("Runs = %d, want %d", x.Runs("noop"), runs)
	}
}

// A kernel's first run is alone on the pool: while a held first run of A
// executes, neither an already-profiled B nor a first run of C runs a block,
// and a second first run of A waits, then runs as profiled — A is profiled
// once.
func TestFirstRunRunsAlone(t *testing.T) {
	x := NewExecutor(4)
	var mu sync.Mutex
	profiled := map[string]int{}
	x.OnProfile = func(name string, _ policy.Class, _ float64) {
		mu.Lock()
		profiled[name]++
		mu.Unlock()
	}
	gate, started := make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	var holding, intruded atomic.Bool
	spec := func(name string, exec func(int)) *kern.Spec {
		return &kern.Spec{
			Name: name, Grid: kern.D1(8), BlockDim: kern.D1(32),
			FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
			ComputeEff: 0.5, Exec: exec,
		}
	}
	// watched flags a block that runs while A's first run is held; a first
	// run's block also flags any kernel beside it.
	watched := func(name string, firstRun bool) *kern.Spec {
		return spec(name, func(int) {
			if holding.Load() || (firstRun && x.RunningCount() != 1) {
				intruded.Store(true)
			}
		})
	}
	if err := x.Run(watched("B", true), 4); err != nil {
		t.Fatal(err)
	}
	held := spec("A", func(int) {
		startOnce.Do(func() {
			holding.Store(true)
			close(started)
		})
		<-gate
	})
	var wg sync.WaitGroup
	launch := func(s *kern.Spec) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := x.Run(s, 4); err != nil {
				t.Error(err)
			}
		}()
	}
	launch(held)
	<-started
	launch(watched("B", false))
	launch(watched("C", true))
	launch(watched("A", false))
	time.Sleep(50 * time.Millisecond) // time enough for a wrong admission to run
	holding.Store(false)
	close(gate)
	wg.Wait()
	if intruded.Load() {
		t.Fatal("a kernel ran a block beside a first run")
	}
	profiles := 0
	for _, d := range x.Decisions() {
		if d.Kernel == "A" && d.Action == "profile" {
			profiles++
		}
	}
	if profiles != 1 || profiled["A"] != 1 {
		t.Fatalf("A profiled %d times in the log and %d through OnProfile, want 1 and 1; decisions %+v",
			profiles, profiled["A"], x.Decisions())
	}
	for name, want := range map[string]int{"A": 2, "B": 2, "C": 1} {
		if got := x.Runs(name); got != want {
			t.Fatalf("%s ran %d times, want %d", name, got, want)
		}
	}
}
