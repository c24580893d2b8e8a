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
	"slate/internal/run"
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
	b := NewSim(dev, clk, &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1})

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
	b := NewSim(dev, clk, engine.NewTraceModel(dev))
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
	b := NewSim(dev, clk, &engine.StaticModel{DefaultHit: 0.2, DefaultRunBytes: 1 << 20, SlateRunFactor: 1})

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

// The executor's corun split biases toward the compute-heavy partner when
// a memory-heavy kernel shares the pool (the class-based rebalance).
func TestExecutorRebalanceBiasesByClass(t *testing.T) {
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
	// show an uneven split favoring the non-memory kernel. Arrival order is
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
	// Budget 6 with one memory-heavy partner → 4/2 split.
	unEven := false
	for _, d := range x.Decisions() {
		if strings.HasPrefix(d, "corun ") &&
			strings.Contains(d, "(4 workers)") && strings.Contains(d, "(2 workers)") {
			unEven = true
		}
	}
	if !unEven {
		t.Fatalf("no uneven corun split recorded; decisions: %v", x.Decisions())
	}
	if nLow.Load() != 4300 || nMem.Load() != 4300 {
		t.Fatalf("block counts %d/%d, want 4300/4300", nLow.Load(), nMem.Load())
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
// decisionLogCap decisions in order, the fallback count is still exact, and
// every sentence reads as it did when record took a formatted string.
func TestDecisionLogIsBoundedAndFormatsOnRead(t *testing.T) {
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
	for i := 0; i < 2; i++ { // profile, then solo
		if err := x.Run(last, 4); err != nil {
			t.Fatal(err)
		}
	}
	got := x.Decisions()
	if len(got) != decisionLogCap {
		t.Fatalf("log holds %d decisions after %d runs, want its capacity %d", len(got), runs, decisionLogCap)
	}
	if got[len(got)-1] != "solo newest(4 workers)" || !strings.HasPrefix(got[len(got)-2], "profile newest: class=") {
		t.Fatalf("newest decisions = %q, want newest's profile and solo last", got[len(got)-2:])
	}
	for _, d := range got[:len(got)-2] {
		if d != "solo noop(4 workers)" {
			t.Fatalf("kept decision %q, want the most recent solos (fallbacks and the profile are long gone)", d)
		}
	}
	if x.Fallbacks() != fallbacks {
		t.Fatalf("Fallbacks() = %d past the cap, want exactly %d", x.Fallbacks(), fallbacks)
	}
	if x.Runs("noop") != runs {
		t.Fatalf("Runs = %d, want %d", x.Runs("noop"), runs)
	}

	perr := fmt.Errorf("%w: kernel %q at block %d: %v", ErrKernelPanic, "k", 3, "boom")
	for _, c := range []struct {
		d    decision
		want string
	}{
		{decision{kind: decSolo, name: "a", n: 8}, "solo a(8 workers)"},
		{decision{kind: decCorun, name: "a", n: 4, other: "b", m: 2}, "corun a(4 workers) + b(2 workers)"},
		{decision{kind: decProfile, name: "a", class: policy.LC, sec: 0.0012345}, fmt.Sprintf("profile %s: class=%v solo=%.3fms", "a", policy.LC, 1.2345)},
		{decision{kind: decPanic, name: "k", other: perr.Error()}, fmt.Sprintf("panic %s: %v", "k", perr)},
		{decision{kind: decFallback, name: "src:k", other: "inject: boom"}, "fallback src:k: vanilla path (inject: boom)"},
		{decision{kind: decTimeoutProfiling, name: "k", sec: 0.05}, "timeout k: abandoned during profiling after 0.1s"},
		{decision{kind: decTimeout, name: "k", sec: 1.5, n: 40, m: 2000}, "timeout k: abandoned after 1.5s, 40 of 2000 blocks claimed"},
		{decision{kind: decTimeoutVanilla, name: "k", sec: 2}, "timeout k: vanilla launch abandoned after 2.0s"},
	} {
		if got := c.d.String(); got != c.want {
			t.Fatalf("decision renders %q, want %q", got, c.want)
		}
	}
}
