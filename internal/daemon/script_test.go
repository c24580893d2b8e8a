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
	"slate/internal/sched"
	"slate/internal/vtime"
	"slate/workloads"
)

// A script is one sequence of inputs to the admission core, written as
// space-separated steps:
//
//	+K  K arrives, profiled
//	?K  K arrives as a first run (unprofiled)
//	!K  K arrives on the vanilla path (Executor.RunVanilla)
//	-K  running K completes
//	g   the grow grace expires, if one is armed
//
// Kernel names are instance names: each instance has its own profile entry.
// A departure that leaves survivors arms the grace, and the next step must
// then be g — the host's grace is a wall-clock timer the script cannot race.
type scriptCase struct {
	name          string
	script        string
	maxConcurrent int
	// codes gives each profiled instance its application (and so its kernel
	// and profile); first runs and vanilla launches have none.
	codes map[string]string
	// sim reports whether the simulator can take the script: it profiles
	// every kernel before admission and has no vanilla submission, so it
	// runs neither first runs nor vanilla launches.
	sim bool
	// pool, when set, is the executor's worker budget and the core's unit
	// count in place of the simulated device's SMs.
	pool int
}

type scriptStep struct {
	op   byte
	name string
}

func parseScript(t *testing.T, s string) []scriptStep {
	t.Helper()
	var steps []scriptStep
	for _, f := range strings.Fields(s) {
		if f == "g" {
			steps = append(steps, scriptStep{op: 'g'})
			continue
		}
		if len(f) < 2 || !strings.ContainsRune("+?!-", rune(f[0])) {
			t.Fatalf("bad script step %q", f)
		}
		steps = append(steps, scriptStep{op: f[0], name: f[1:]})
	}
	return steps
}

// refDriver lets the core run with no device: it carries nothing out and
// only tracks what the script may do next.
type refDriver struct {
	armed   bool
	running map[string]bool
}

func (d *refDriver) Launch(j *sched.Job, _, _ int, _ bool) error {
	d.running[j.Name] = true
	return nil
}
func (d *refDriver) Resize(*sched.Job, int, int) error { return nil }
func (d *refDriver) Evict(*sched.Job) error            { return nil }
func (d *refDriver) Finish(vtime.Time, *sched.Job)     {}
func (d *refDriver) ArmGrow()                          { d.armed = true }
func (d *refDriver) CancelGrow()                       { d.armed = false }

// runCore feeds the script to the bare core. It returns the decisions and,
// per step, how many decisions had been made once the step was done.
func runCore(t *testing.T, c scriptCase, numSMs int, profs map[string]*profile.Profile) ([]sched.Decision, []int) {
	t.Helper()
	d := &refDriver{running: map[string]bool{}}
	core := sched.Core{Driver: d, NumSMs: numSMs, MaxConcurrent: c.maxConcurrent}
	jobs := map[string]*sched.Job{}
	var counts []int
	for i, st := range parseScript(t, c.script) {
		now := vtime.Time(i)
		if d.armed && st.op != 'g' {
			t.Fatalf("%s: step %d (%c%s) follows an armed grow grace; put g first", c.name, i, st.op, st.name)
		}
		switch st.op {
		case '+', '?', '!':
			j := &sched.Job{Name: st.name, Vanilla: st.op == '!'}
			if st.op == '+' {
				j.Prof = profs[st.name]
			}
			jobs[st.name] = j
			if err := core.Arrive(now, j); err != nil {
				t.Fatal(err)
			}
		case '-':
			if !d.running[st.name] {
				t.Fatalf("%s: step %d departs %s, which is not running", c.name, i, st.name)
			}
			delete(d.running, st.name)
			core.Depart(now, jobs[st.name])
		case 'g':
			d.armed = false
			core.GraceExpired(now)
		}
		counts = append(counts, len(core.Log.All()))
	}
	if len(d.running) != 0 {
		t.Fatalf("%s: script ends with %d kernels running", c.name, len(d.running))
	}
	return core.Log.All(), counts
}

// runSim feeds the script to the simulator's Scheduler. Kernels are held
// by stalling every running one after each step; a departure releases one
// kernel and steps the clock until it completes.
func runSim(t *testing.T, c scriptCase, dev *device.Device, model engine.PerfModel, pf *profile.Profiler) []sched.Decision {
	t.Helper()
	clk := vtime.NewClock()
	sim := NewSim(dev, clk, model, pf)
	s := sim.Sched
	s.MaxConcurrent = c.maxConcurrent
	done := map[string]bool{}
	for _, st := range parseScript(t, c.script) {
		switch st.op {
		case '+':
			name := st.name
			done[name] = false
			spec := appKernel(t, c.codes[name])
			spec.Name = name
			if err := s.Submit(spec, 0, func(vtime.Time, engine.Metrics) { done[name] = true }); err != nil {
				t.Fatal(err)
			}
		case '-':
			s.StallRunning(st.name, 0)
			for !done[st.name] && clk.Step() {
			}
			if !done[st.name] {
				t.Fatalf("%s: simulated %s never completed", c.name, st.name)
			}
		case 'g':
			clk.RunUntil(clk.Now().Add(2 * vtime.FromSeconds(s.GrowGraceSeconds)))
		default:
			t.Fatalf("%s: the simulator cannot take step %c%s", c.name, st.op, st.name)
		}
		for name := range c.codes {
			s.StallRunning(name, 1000*vtime.Second)
		}
	}
	return s.Decisions()
}

// runExecutor feeds the script to an executor whose kernel bodies are held
// on gates: an arrival is a Run (or RunVanilla) on its own goroutine, a
// departure opens the kernel's gate. After each step it waits until the
// executor has made as many decisions as the core did. The host's profile
// decisions are dropped: the bare core makes none.
func runExecutor(t *testing.T, c scriptCase, budget int, profs map[string]*profile.Profile, counts []int) []sched.Decision {
	t.Helper()
	x := NewExecutor(budget)
	x.MaxConcurrent = c.maxConcurrent
	for name, p := range profs {
		x.profiles[name] = p
	}
	decisions := func() []sched.Decision {
		var out []sched.Decision
		for _, d := range x.Decisions() {
			if d.Action != "profile" {
				d.At = 0
				out = append(out, d)
			}
		}
		return out
	}
	gates := map[string]chan struct{}{}
	var wg sync.WaitGroup
	for i, st := range parseScript(t, c.script) {
		switch st.op {
		case '+', '?', '!':
			gate := make(chan struct{})
			gates[st.name] = gate
			spec := &kern.Spec{
				Name: st.name, Grid: kern.D1(8), BlockDim: kern.D1(32),
				FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
				ComputeEff: 0.5, Exec: func(int) { <-gate },
			}
			run := x.Run
			if st.op == '!' {
				run = x.RunVanilla
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := run(spec, 0); err != nil {
					t.Error(err)
				}
			}()
		case '-':
			close(gates[st.name])
		}
		if i > 0 && counts[i] == counts[i-1] {
			time.Sleep(5 * time.Millisecond) // a step the core made nothing of
		}
		for giveUp := time.Now().Add(5 * time.Second); len(decisions()) < counts[i]; {
			if time.Now().After(giveUp) {
				t.Fatalf("%s: step %d (%c%s): executor made %d decisions, core %d: %+v",
					c.name, i, st.op, st.name, len(decisions()), counts[i], decisions())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Wait()
	return decisions()
}

// appKernel returns a fresh instance of an application's kernel.
func appKernel(t *testing.T, code string) *kern.Spec {
	t.Helper()
	app, err := workloads.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	return app.Kernel
}

// sameDecisions compares two decision sequences with At zeroed.
func sameDecisions(t *testing.T, what string, got, want []sched.Decision) {
	t.Helper()
	n := max(len(got), len(want))
	for i := 0; i < n; i++ {
		var g, w sched.Decision
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		g.At, w.At = 0, 0
		if g != w {
			t.Fatalf("%s: decision %d is %+v, the core's is %+v\ngot  %+v\nwant %+v", what, i, g, w, got, want)
		}
	}
}

// One event script, three drivers: the bare admission core, the
// simulator's Scheduler and the host executor make the same decisions —
// the same launches, ranges, partners, queueing, grows and completions.
// The executor runs with one worker per SM and the simulator's profiles.
func TestScriptedSequence(t *testing.T) {
	dev := device.TitanXp()
	model := engine.NewTraceModel(dev)
	pf := profile.New(dev, model)

	// The Fig. 7 pairs, looped: each application relaunches its kernel
	// after it completes.
	var pairs []scriptCase
	for _, pair := range workloads.Pairs() {
		a, b := pair[0].Code+"1", pair[1].Code+"2"
		pairs = append(pairs, scriptCase{
			name: a + "-" + b,
			script: fmt.Sprintf("+%[1]s +%[2]s ", a, b) +
				strings.Repeat(fmt.Sprintf("-%[1]s g +%[1]s -%[2]s g +%[2]s ", a, b), 2) +
				fmt.Sprintf("-%[1]s g -%[2]s", a, b),
			maxConcurrent: 2,
			codes:         map[string]string{a: pair[0].Code, b: pair[1].Code},
			sim:           true,
		})
	}
	others := []scriptCase{
		{
			name:          "three-way",
			script:        "+A +B +C -A g +A -C g +C -B g +B -A g -C g -B",
			maxConcurrent: 3,
			codes:         map[string]string{"A": "RG", "B": "RG", "C": "TR"},
			sim:           true,
		},
		{
			// More kernels than workers: every kernel still gets one.
			name:          "three-way-on-two-workers",
			script:        "+A +B +C -A g -B g -C",
			maxConcurrent: 3,
			codes:         map[string]string{"A": "RG", "B": "RG", "C": "TR"},
			pool:          2,
		},
		{
			name:          "first-run-behind-looped-pair",
			script:        "+P +Q ?W -P g +P -Q g +Q -P g -Q -W",
			maxConcurrent: 2,
			codes:         map[string]string{"P": "RG", "Q": "RG"},
		},
		{
			// C skips the vanilla launch ahead of it in the partner scan.
			name:          "vanilla-behind-corun",
			script:        "+A +B !V +C -A -B g -C +A -V -A",
			maxConcurrent: 2,
			codes:         map[string]string{"A": "RG", "B": "TR", "C": "RG"},
		},
	}

	coruns := 0
	run := func(t *testing.T, c scriptCase) {
		profs := map[string]*profile.Profile{}
		for name, code := range c.codes {
			p, err := pf.Get(appKernel(t, code))
			if err != nil {
				t.Fatal(err)
			}
			profs[name] = p
		}
		units := dev.NumSMs
		if c.pool > 0 {
			units = c.pool
		}
		want, counts := runCore(t, c, units, profs)
		for _, d := range want {
			if d.Action == "corun" {
				coruns++
			}
		}
		if c.sim {
			sameDecisions(t, "simulator", runSim(t, c, dev, model, pf), want)
		}
		sameDecisions(t, "executor", runExecutor(t, c, units, profs, counts), want)
	}
	t.Run("pairs", func(t *testing.T) {
		for _, c := range pairs {
			t.Run(c.name, func(t *testing.T) { run(t, c) })
		}
	})
	for _, c := range others {
		t.Run(c.name, func(t *testing.T) { run(t, c) })
	}
	if coruns == 0 {
		t.Fatal("no script ever coran")
	}
}

// A first run is not starved by a looped corun pair: P and Q, restored as
// L_C, relaunch ~2 ms kernels back to back, each from two goroutines, and a
// first run W arriving 20 ms in completes within the aging bound plus one
// P/Q kernel time plus slack. Without queue order and aging a P or Q is
// always ready to take a freed slot, and W would wait until the loops stop.
func TestFirstRunNotStarvedByLoopedPair(t *testing.T) {
	const (
		kernelTime = 2 * time.Millisecond
		// slack covers W's own run and goroutine and timer scheduling on a
		// loaded host under -race.
		slack = 100 * time.Millisecond
		// loopFor caps the loops, so an executor that starves W fails the
		// test instead of hanging it.
		loopFor = 2 * time.Second
	)
	x := NewExecutor(4)
	for _, name := range []string{"P", "Q"} {
		x.RestoreProfile(name, policy.LC, kernelTime.Seconds())
	}
	// Four blocks on a corun half of the pool (2 workers): ~2 ms for P and,
	// so the two do not run in step, ~1.6 ms for Q.
	looped := func(name string) *kern.Spec {
		block := kernelTime / 2
		if name == "Q" {
			block = kernelTime * 4 / 10
		}
		return &kern.Spec{
			Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
			FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
			ComputeEff: 0.5, Exec: func(int) { time.Sleep(block) },
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, name := range []string{"P", "Q", "P", "Q"} {
		spec := looped(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(loopFor); !stop.Load() && time.Now().Before(deadline); {
				if err := x.Run(spec, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	w := &kern.Spec{
		Name: "W", Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
		ComputeEff: 0.5, Exec: func(int) {},
	}
	start := time.Now()
	err := x.Run(w, 1)
	waited := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	bound := time.Duration(sched.DefaultAgingBound) + kernelTime + slack
	if waited > bound {
		t.Fatalf("first run W took %v beside the looped pair, want at most %v (aging bound %v + kernel %v + slack %v)",
			waited, bound, time.Duration(sched.DefaultAgingBound), kernelTime, slack)
	}
}
