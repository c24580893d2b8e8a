// The overload experiment: a seeded chaos driver for the containment,
// admission, and drain machinery. It exercises both execution paths:
//
// Phase A floods the virtual-time scheduler with a seeded kernel mix plus two
// runaways — a kernel that stalls on every launch and a stale-profile kernel
// whose cached measurement drifted 100× from reality — and drives the ladder
// (evict → requeue → quarantine → vanilla → abandon) to completion.
//
// Phase B floods a live daemon with hostile sessions: a launch-queue flooder,
// a memory hog, a client that hammers past its backoff budget until the
// circuit opens, a kernel that overruns the wall-clock deadline, and a
// SIGTERM-style drain raced against in-flight work.
//
// The runner sweeps two seeds twice and the traces must match exactly; on
// top of the faults invariants (daemon survives, registries drain, seeds
// reproduce) it checks three containment invariants: no queued kernel waits
// forever, a quarantined offender never occupies more than one partition
// again, and drain always terminates.
package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/sched"
	"slate/internal/vtime"
)

// overloadResult is everything one run produced that must be reproducible.
type overloadResult struct {
	decisions []string // phase A: the scheduler's full decision trace
	outcomes  []string // phase B: client-visible outcome labels

	// Phase A invariant inputs.
	completions    map[string]int // onDone fires per kernel
	submitted      int
	schedQueued    int
	schedRunning   int
	engineRunning  int
	quarantined    []string
	corunAfterQtn  []string // quarantined kernels later seen sharing the device
	starvedKernels []string // kernels that queued but never started

	// Phase B invariant inputs.
	sessions    int
	registry    int
	specs       int
	drainClean  bool
	drainMillis float64
}

// --- Phase A kernel shapes (mirror the scheduler's test taxonomy) ---

func oMemK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e5, InstrPerBlock: 1e5, L2BytesPerBlock: 1 << 20,
		ComputeEff: 0.8, MemMLP: 8,
	}
}

func oComputeK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e8, InstrPerBlock: 1e5, L2BytesPerBlock: 1e4,
		ComputeEff: 0.8,
	}
}

func oLowK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(128),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e5, L2BytesPerBlock: 2e5,
		ComputeEff: 0.02, OpsPerBlock: 1e6, MemMLP: 2,
	}
}

// overloadPhaseA runs the virtual-time containment scenario.
func overloadPhaseA(seed int64, res *overloadResult) error {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	model := &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1}
	eng := engine.New(dev, clk, model)
	prof := profile.New(dev, model)
	s := sched.New(dev, eng, prof)
	s.EnableContainment(2 * vtime.Millisecond)

	res.completions = map[string]int{}
	rng := rand.New(rand.NewSource(seed))
	track := func(name string) func(vtime.Time, engine.Metrics) {
		res.submitted++
		return func(vtime.Time, engine.Metrics) { res.completions[name]++ }
	}

	// Calibrate the stale-profile runaway: the measurement the drift below
	// will invalidate.
	if err := s.Submit(oComputeK("stale", 2400), 10, track("stale-cal")); err != nil {
		return err
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return fmt.Errorf("overload: calibration did not converge")
	}

	// The hog stalls on every launch until the scheduler gives up on it.
	hogDone := false
	if err := s.Submit(oComputeK("hog", 48000), 10, func(vtime.Time, engine.Metrics) {
		res.completions["hog"]++
		hogDone = true
	}); err != nil {
		return err
	}
	res.submitted++
	var restall func(vtime.Time)
	restall = func(vtime.Time) {
		if hogDone {
			return
		}
		s.StallRunning("hog", 10*vtime.Second)
		clk.After(vtime.Millisecond, restall)
	}
	clk.After(vtime.Millisecond, restall)

	// The runaway: post-calibration drift. The cached profile now claims the
	// kernel is 100× faster than it really is, so the watchdog budget
	// under-predicts wildly and the overrun path fires. (The old trap — a
	// 100× grid resubmitted under a cached name — no longer exists: the
	// content-addressed profiler re-measures a changed grid.)
	pr, err := s.Prof.Get(oComputeK("stale", 2400))
	if err != nil {
		return err
	}
	pr.SoloSec /= 100
	if err := s.Submit(oComputeK("stale", 2400), 10, track("stale-big")); err != nil {
		return err
	}

	// A seeded flood of innocent kernels arriving at staggered times.
	at := vtime.Duration(0)
	for i := 0; i < 8; i++ {
		var spec *kern.Spec
		name := fmt.Sprintf("w%d", i)
		switch rng.Intn(3) {
		case 0:
			spec = oMemK(name, 1200+rng.Intn(2400))
		case 1:
			spec = oComputeK(name, 1200+rng.Intn(2400))
		default:
			spec = oLowK(name, 240+rng.Intn(480))
		}
		at += vtime.Duration(rng.Intn(400)) * vtime.Microsecond
		onDone := track(name)
		clk.After(at, func(vtime.Time) {
			if err := s.Submit(spec, 10, onDone); err != nil {
				res.decisions = append(res.decisions, fmt.Sprintf("%s submit-error %v", name, err))
			}
		})
	}

	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return fmt.Errorf("overload: phase A did not converge")
	}

	res.schedQueued = s.Queued()
	res.schedRunning = s.Running()
	res.engineRunning = eng.Running()
	for _, name := range []string{"hog", "stale"} {
		if s.Quarantined(name) {
			res.quarantined = append(res.quarantined, name)
		}
	}

	// Post-quarantine occupancy: once quarantined, a kernel may only run
	// through the vanilla whole-device path — any later solo/corun/grow
	// decision means it shared a partitioned device again.
	qtnAt := map[string]int{}
	queuedAt := map[string]bool{}
	startedAt := map[string]bool{}
	for i, d := range s.Decisions() {
		res.decisions = append(res.decisions, fmt.Sprintf("%d %s %s %s", d.At, d.Kernel, d.Action, d.Reason))
		switch d.Action {
		case "quarantine":
			if _, seen := qtnAt[d.Kernel]; !seen {
				qtnAt[d.Kernel] = i
			}
		case "queue":
			queuedAt[d.Kernel] = true
		case "solo", "corun", "grow", "dequeue":
			startedAt[d.Kernel] = true
			if at, seen := qtnAt[d.Kernel]; seen && i > at {
				res.corunAfterQtn = append(res.corunAfterQtn, d.Kernel)
			}
		}
	}
	for k := range queuedAt {
		if !startedAt[k] {
			res.starvedKernels = append(res.starvedKernels, k)
		}
	}
	return nil
}

// --- Phase B: wall-clock daemon flood ---

func oGated(name string, gate <-chan struct{}) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) { <-gate },
	}
}

func oQuick(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

func oSlow(name string, blocks int, perBlock time.Duration) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) { time.Sleep(perBlock) },
	}
}

// oLabel maps an error to a stable trace label (raw error text can embed
// nondeterministic detail; sentinel identity cannot).
func oLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, client.ErrBackpressure):
		return "backpressure"
	case errors.Is(err, client.ErrQuota):
		return "quota"
	case errors.Is(err, client.ErrDraining):
		return "draining"
	case errors.Is(err, client.ErrKernelTimeout):
		return "kernel-timeout"
	case errors.Is(err, client.ErrCircuitOpen):
		return "circuit-open"
	default:
		return "error"
	}
}

func overloadPhaseB(seed int64, res *overloadResult) error {
	srv, dial := daemon.NewLocal(4)
	srv.MaxSessionPending = 2
	srv.MaxSessionBytes = 1 << 20

	note := func(sess, op string, err error) {
		res.outcomes = append(res.outcomes, fmt.Sprintf("%s %s: %s", sess, op, oLabel(err)))
	}

	// Session 1 — flood: five launches against a pending bound of two. The
	// overflow is rejected with backpressure; the admitted work survives.
	{
		cli, err := client.Local(srv, dial, "flood")
		if err != nil {
			return err
		}
		gate := make(chan struct{})
		for i := 0; i < 5; i++ {
			note("flood", fmt.Sprintf("launch%d", i), cli.Launch(oGated(fmt.Sprintf("fl%d", i), gate), 1))
		}
		close(gate)
		note("flood", "sync", cli.Synchronize())
		note("flood", "launch-after-drain", cli.Launch(oQuick("fl-after"), 1))
		note("flood", "sync2", cli.Synchronize())
		note("flood", "close", cli.Close())
	}

	// Session 2 — greedy: a memory hog bouncing off its per-session quota.
	{
		cli, err := client.Local(srv, dial, "greedy")
		if err != nil {
			return err
		}
		b1, err := cli.Malloc(700 << 10)
		note("greedy", "malloc1", err)
		_, err = cli.Malloc(700 << 10)
		note("greedy", "malloc2", err)
		if b1 != nil {
			note("greedy", "free1", cli.Free(b1))
		}
		b3, err := cli.Malloc(512 << 10)
		note("greedy", "malloc3", err)
		if b3 != nil {
			note("greedy", "free3", cli.Free(b3))
		}
		note("greedy", "close", cli.Close())
	}

	// Session 3 — hammer: exhausted backpressure retries trip the circuit
	// breaker, so the client stops hammering the saturated daemon.
	{
		cli, err := client.Local(srv, dial, "hammer",
			client.WithBackpressureRetry(client.BackoffConfig{
				Attempts: 1, BaseDelay: time.Millisecond, TripAfter: 2,
				Cooldown: 10 * time.Second, Seed: seed,
			}))
		if err != nil {
			return err
		}
		gate := make(chan struct{})
		note("hammer", "hog1", cli.Launch(oGated("hm-hog1", gate), 1))
		note("hammer", "hog2", cli.Launch(oGated("hm-hog2", gate), 1))
		for i := 0; i < 3; i++ {
			note("hammer", fmt.Sprintf("flood%d", i), cli.Launch(oQuick("hm-x"), 1))
		}
		close(gate)
		note("hammer", "sync", cli.Synchronize())
		note("hammer", "close", cli.Close())
	}

	// Session 4 — crawler: a kernel that overruns the wall-clock deadline is
	// abandoned, and the timeout is sticky for the session.
	{
		srv.Exec.MaxRunSeconds = 0.05
		cli, err := client.Local(srv, dial, "crawler")
		if err != nil {
			return err
		}
		note("crawler", "launch", cli.Launch(oSlow("crawl", 400, 2*time.Millisecond), 1))
		note("crawler", "sync", cli.Synchronize())
		note("crawler", "launch-after-timeout", cli.Launch(oQuick("crawl-after"), 1))
		note("crawler", "close", cli.Close())
		srv.Exec.MaxRunSeconds = 0
	}

	// Session 5 — drain raced against in-flight work: new sessions and new
	// work are refused, the in-flight launch finishes, drain terminates.
	{
		cli, err := client.Local(srv, dial, "survivor")
		if err != nil {
			return err
		}
		gate := make(chan struct{})
		note("survivor", "launch", cli.Launch(oGated("inflight", gate), 1))
		start := time.Now()
		drained := make(chan error, 1)
		go func() { drained <- srv.Drain(10 * time.Second) }()
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		_, err = client.Local(srv, dial, "latecomer")
		note("latecomer", "hello", err)
		note("survivor", "launch-while-draining", cli.Launch(oQuick("late"), 1))
		_, err = cli.Malloc(64)
		note("survivor", "malloc-while-draining", err)
		close(gate)
		note("survivor", "sync", cli.Synchronize())
		note("survivor", "close", cli.Close())
		derr := <-drained
		res.drainClean = derr == nil
		res.drainMillis = float64(time.Since(start).Milliseconds())
	}

	// Teardown runs after the close replies; wait for the tables to settle.
	waitSessions(srv, 10*time.Second)
	res.sessions = srv.Sessions()
	res.registry = srv.Registry.Len()
	res.specs = srv.Specs.Len()
	return nil
}

func overloadRun(seed int64) (*overloadResult, error) {
	res := &overloadResult{}
	if err := overloadPhaseA(seed, res); err != nil {
		return nil, err
	}
	if err := overloadPhaseB(seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// overloadInvariants are the scenario's rows, per seed: what one run of the
// script must uphold. The last two carry what must reproduce — the
// scheduler's full decision trace as a digest, the daemon outcomes as detail
// — and the runner's double run is what compares it.
var overloadInvariants = []invariant[*overloadResult]{
	{"every virtual kernel heard back exactly once", func(r *overloadResult) (row, error) {
		onceEach := len(r.completions) == r.submitted
		for _, n := range r.completions {
			if n != 1 {
				onceEach = false
			}
		}
		return observed(onceEach, "%d submitted, %d completed", r.submitted, len(r.completions))
	}},
	{"scheduler and engine drained", func(r *overloadResult) (row, error) {
		return observed(r.schedQueued == 0 && r.schedRunning == 0 && r.engineRunning == 0,
			"queued=%d running=%d engine=%d", r.schedQueued, r.schedRunning, r.engineRunning)
	}},
	{"both runaways quarantined", func(r *overloadResult) (row, error) {
		return observed(len(r.quarantined) == 2, "quarantined=%v", r.quarantined)
	}},
	{"no partition occupancy after quarantine", func(r *overloadResult) (row, error) {
		return observed(len(r.corunAfterQtn) == 0, "violators=%v", r.corunAfterQtn)
	}},
	{"no queued kernel starved (aging bound)", func(r *overloadResult) (row, error) {
		return observed(len(r.starvedKernels) == 0, "starved=%v", r.starvedKernels)
	}},
	{"daemon sessions drained", func(r *overloadResult) (row, error) {
		return observed(r.sessions == 0, "%d live", r.sessions)
	}},
	{"buffer registry and spec table drained", func(r *overloadResult) (row, error) {
		return observed(r.registry == 0 && r.specs == 0, "%d buffers, %d specs", r.registry, r.specs)
	}},
	{"drain terminated cleanly (politely, not by force)", func(r *overloadResult) (row, error) {
		out, err := observed(r.drainClean && r.drainMillis < 5000, "clean=%v", r.drainClean)
		out.vals = append(out.vals, r.drainMillis)
		return out, err
	}},
	{"same seed, same decision trace", func(r *overloadResult) (row, error) {
		return observed(true, "%d decisions, sha256 %.8x", len(r.decisions), sha256.Sum256([]byte(strings.Join(r.decisions, "\n"))))
	}},
	{"same seed, same outcomes", func(r *overloadResult) (row, error) {
		return row{vals: []any{fmt.Sprintf("%d daemon outcomes", len(r.outcomes))}, detail: r.outcomes}, nil
	}},
}

// overload is the scenario: one script per seed and run, the invariants above
// as its rows.
var overload = &scenario{
	name:  "overload",
	title: "Overload run: containment ladder (virtual time), then admission, breaker, kernel timeout and drain on a live daemon",
	keys:  []string{"invariant"},
	cols:  []column{{name: "observed"}, {name: "drain_ms", printedOnly: true}},
	seeds: 2,
	cells: func(seed int64) []cell {
		return invariantCells(func() (*overloadResult, error) { return overloadRun(seed) }, overloadInvariants)
	},
	upheld: "containment, admission and drain upheld at both seeds",
}
