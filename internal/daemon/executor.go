package daemon

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/sched"
	"slate/internal/transform"
)

// ErrKernelPanic is the typed cause of every launch failure produced by a
// panicking kernel body. Like a CUDA sticky context error, it poisons the
// launching session (later launches fail immediately) but never the daemon:
// the panic is recovered inside the worker, the offending kernel's remaining
// blocks drain, and other sessions' kernels keep running.
var ErrKernelPanic = ipc.ErrKernelPanic

// ErrKernelTimeout is the typed cause of a launch abandoned by the
// executor's wall-clock containment deadline. Like ErrKernelPanic it is
// sticky for the launching session. Go cannot kill a goroutine, so a worker
// blocked *inside* a kernel body is stranded (a contained leak: it holds
// only its queue and spec); every worker between pulls, and the launch
// itself, stops promptly.
var ErrKernelTimeout = ipc.ErrKernelTimeout

// panicTrap contains panics escaping user kernel bodies: the first one is
// recorded, every one is recovered, and the surrounding launch turns into an
// ErrKernelPanic instead of a daemon crash.
type panicTrap struct {
	mu    sync.Mutex
	first error
}

// wrap guards one kernel body. A panicking block abandons only its own
// remaining work; the queue keeps draining so the launch terminates.
func (p *panicTrap) wrap(spec *kern.Spec) func(glob int, id kern.Dim3) {
	return func(glob int, _ kern.Dim3) {
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				if p.first == nil {
					p.first = fmt.Errorf("%w: kernel %q at block %d: %v", ErrKernelPanic, spec.Name, glob, r)
				}
				p.mu.Unlock()
			}
		}()
		spec.Exec(glob)
	}
}

func (p *panicTrap) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// Executor runs registered Go kernels for real, with Slate's scheduling
// semantics mapped onto host CPUs: the "SM" pool is a worker-goroutine
// budget, and admission, corun pairing and partition sizing are sched's
// policy (Table I and sched.Layout). A kernel's first run is measured alone
// and classified; later runs corun when Table I pairs them, and arrivals and
// completions resize running kernels through the retreat signal and
// queue-cursor carry-over — the same machinery the injected device code uses
// (Listings 2-3), exercised end to end.
type Executor struct {
	// Budget is the total worker-goroutine pool (the host "SM count").
	Budget int
	// MaxConcurrent bounds how many kernels may share the pool (2, as in the
	// paper's evaluation; raise for N-way sharing).
	MaxConcurrent int
	// MaxRunSeconds is the wall-clock containment deadline per launch
	// (0 = unbounded). A launch still running past it is abandoned with
	// ErrKernelTimeout: its workers stop at the next queue pull, its budget
	// share is rebalanced to the survivors, and the daemon stays up.
	MaxRunSeconds float64
	// OnProfile, when set, observes every first-run classification — the
	// daemon's durability layer journals these so a restart keeps the warm
	// profile table instead of re-measuring every kernel. Called without the
	// executor lock held.
	OnProfile func(name string, class policy.Class, soloSec float64)

	mu       sync.Mutex
	cond     *sync.Cond
	running  []*execTask
	profiles map[string]*profile.Profile
	runs     map[string]int
	// log is the decision log: a ring of the last decisionLogCap decisions,
	// logged counting every one ever recorded (so log[logged%cap] is the
	// oldest once the ring is full). fallbacks counts NoteFallback's vanilla
	// decisions exactly, whatever the ring has since dropped.
	log       []sched.Decision
	logged    uint64
	fallbacks int
}

// decisionLogCap bounds the decision log: a daemon records one decision per
// launch for as long as it runs, and observability needs the recent ones.
const decisionLogCap = 1024

type execTask struct {
	spec      *kern.Spec
	prof      *profile.Profile // nil on the kernel's first run
	queue     *transform.Queue
	target    int // assigned workers; changed under Executor.mu
	abandoned bool
	started   time.Time
}

// NewExecutor builds an executor with the given worker budget (<=0 selects
// 8).
func NewExecutor(budget int) *Executor {
	if budget <= 0 {
		budget = 8
	}
	x := &Executor{Budget: budget, MaxConcurrent: 2,
		profiles: map[string]*profile.Profile{}, runs: map[string]int{}}
	x.cond = sync.NewCond(&x.mu)
	return x
}

// hostProfile is a host-measured profile: the class and solo time of a first
// run, and a scaling curve linear over the pool — the host cannot measure one,
// because re-running a kernel body is not idempotent.
func (x *Executor) hostProfile(name string, class policy.Class, soloSec float64) *profile.Profile {
	return &profile.Profile{Kernel: name, Class: class, SoloSec: soloSec,
		Speed10: profile.ScalingSMs / float64(x.Budget)}
}

// Run executes every block of spec via persistent workers, blocking until
// completion. A kernel's first run is admitted only to an idle pool, runs
// alone and is timed and classified; later runs corun where Table I pairs
// them. Both go through the same admission, dispatch and containment.
func (x *Executor) Run(spec *kern.Spec, taskSize int) error {
	if spec.Exec == nil {
		return fmt.Errorf("daemon: kernel %q has no executable body", spec.Name)
	}
	if taskSize <= 0 {
		taskSize = transform.DefaultTaskSize
	}
	tr, err := transform.Transform(spec.Grid, taskSize)
	if err != nil {
		return err
	}

	trap := &panicTrap{}
	x.mu.Lock()
	// The profile is re-read after every wait: a first run that queued
	// behind another first run of the same kernel is admitted as profiled.
	prof := x.profiles[spec.Name]
	for !x.admitsLocked(prof) {
		x.cond.Wait()
		prof = x.profiles[spec.Name]
	}
	task := &execTask{
		spec:    spec,
		prof:    prof,
		queue:   transform.NewQueue(tr),
		started: time.Now(),
	}
	x.running = append(x.running, task)
	x.noteRunLocked(spec.Name)
	x.rebalanceLocked()
	x.recordAdmissionLocked(task)
	initialWorkers := task.target
	x.mu.Unlock()

	// Drive the dispatch loop: relaunch after every retreat with the
	// freshly assigned worker count, carrying the queue cursor.
	timedOut := !x.contain(func() {
		transform.RunToCompletion(tr, task.queue, initialWorkers,
			func(int) int {
				x.mu.Lock()
				w := task.target
				if task.abandoned {
					w = -1
				}
				x.mu.Unlock()
				return w
			},
			trap.wrap(spec))
	})
	sec := time.Since(task.started).Seconds()
	if timedOut {
		x.mu.Lock()
		task.abandoned = true
		x.mu.Unlock()
		task.queue.Retreat()
	}

	x.mu.Lock()
	for i, t := range x.running {
		if t == task {
			x.running = append(x.running[:i], x.running[i+1:]...)
			break
		}
	}
	x.rebalanceLocked()
	var learned *profile.Profile
	switch perr := trap.err(); {
	case timedOut:
		err = fmt.Errorf("daemon: kernel %q: %w", spec.Name, ErrKernelTimeout)
		x.record(sched.Decision{Kernel: spec.Name, Action: "abandon",
			Reason: fmt.Sprintf("timeout after %.1fs, %d of %d blocks claimed", x.MaxRunSeconds, task.queue.Progress(), tr.NumBlocks)})
	case perr != nil:
		// A panicking first run is not classified; the next launch of the
		// (presumably fixed) kernel profiles afresh.
		err = perr
		x.record(sched.Decision{Kernel: spec.Name, Action: "panic", Reason: perr.Error()})
	case prof == nil:
		sec = max(sec, 1e-9)
		class := policy.Classify(spec.TotalFLOPs()/sec/1e9, spec.TotalL2Bytes()/sec/1e9)
		learned = x.hostProfile(spec.Name, class, sec)
		x.profiles[spec.Name] = learned
		x.record(sched.Decision{Kernel: spec.Name, Action: "profile",
			Reason: fmt.Sprintf("class=%v solo=%.3fms", class, sec*1e3)})
	}
	onProfile := x.OnProfile
	x.cond.Broadcast()
	x.mu.Unlock()
	if learned != nil && onProfile != nil {
		onProfile(spec.Name, learned.Class, learned.SoloSec)
	}
	return err
}

// admitsLocked is the one admission rule: an idle pool starts anything; a
// first run (nil profile) otherwise waits, and nothing joins one; a profiled
// kernel joins up to MaxConcurrent kernels that Table I pairs it with.
func (x *Executor) admitsLocked(prof *profile.Profile) bool {
	if len(x.running) == 0 {
		return true
	}
	if prof == nil || len(x.running) >= x.MaxConcurrent {
		return false
	}
	for _, r := range x.running {
		if r.prof == nil || !policy.Corun(r.prof.Class, prof.Class) {
			return false
		}
	}
	return true
}

// recordAdmissionLocked logs the launch of task, the newest of the running
// set: solo, or corun beside the kernels ahead of it. Worker ranges are laid
// out in running order, as sched lays out SM ranges.
func (x *Executor) recordAdmissionLocked(task *execTask) {
	d := sched.Decision{Kernel: task.spec.Name, Action: "solo", SMHigh: task.target - 1}
	if others := x.running[:len(x.running)-1]; len(others) > 0 {
		names := make([]string, len(others))
		for i, t := range others {
			d.SMLow += t.target
			names[i] = t.spec.Name
		}
		d.Action, d.SMHigh, d.Partner = "corun", d.SMLow+task.target-1, strings.Join(names, "+")
	}
	x.record(d)
}

// contain runs fn under the containment deadline and reports whether it
// finished. With a deadline, fn gets its own goroutine so the launch can be
// abandoned without waiting on a wedged kernel body (false: the deadline
// passed and fn may still be running). Without one nothing can abandon the
// launch, so fn runs on the calling goroutine: no spawn, no channel.
func (x *Executor) contain(fn func()) bool {
	if x.MaxRunSeconds <= 0 {
		fn()
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	deadline := time.NewTimer(time.Duration(x.MaxRunSeconds * float64(time.Second)))
	defer deadline.Stop()
	select {
	case <-done:
		return true
	case <-deadline.C:
		return false
	}
}

// RunVanilla executes spec through the plain hardware-scheduler path: no
// profiling, no corun admission, no retreat signal — a fixed worker pool
// draining the untransformed grid. It is the graceful-degradation target
// when injection or compilation fails (the paper's transparency contract:
// Slate must never make a program that ran before stop running). Panicking
// bodies are still contained and reported as ErrKernelPanic.
func (x *Executor) RunVanilla(spec *kern.Spec, _ int) error {
	if spec.Exec == nil {
		return fmt.Errorf("daemon: kernel %q has no executable body", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	blocks := spec.Grid.X * spec.Grid.Y
	x.mu.Lock()
	x.noteRunLocked(spec.Name)
	x.mu.Unlock()
	trap := &panicTrap{}
	body := trap.wrap(spec)
	workers := x.Budget
	if workers > blocks {
		workers = blocks
	}
	var next atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				glob := int(next.Add(1)) - 1
				if glob >= blocks {
					return
				}
				body(glob, kern.Dim3{})
			}
		}()
	}
	if !x.contain(wg.Wait) {
		abort.Store(true)
		x.mu.Lock()
		x.record(sched.Decision{Kernel: spec.Name, Action: "abandon",
			Reason: fmt.Sprintf("vanilla launch timed out after %.1fs", x.MaxRunSeconds)})
		x.mu.Unlock()
		return fmt.Errorf("daemon: kernel %q: %w", spec.Name, ErrKernelTimeout)
	}
	return trap.err()
}

// NoteFallback records a graceful-degradation decision (vanilla-path launch
// after an injection/compilation failure) in the decision log.
func (x *Executor) NoteFallback(name, reason string) {
	x.mu.Lock()
	x.record(sched.Decision{Kernel: name, Action: "vanilla", Reason: reason})
	x.fallbacks++
	x.mu.Unlock()
}

// Fallbacks reports how many graceful-degradation decisions NoteFallback has
// recorded since start — exact however long the daemon has run, unlike a
// count over Decisions, which holds the recent ones only.
func (x *Executor) Fallbacks() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.fallbacks
}

// rebalanceLocked reassigns the worker budget to the running set by
// sched.Layout and signals retreats to kernels whose share changed — dynamic
// kernel resizing (§III-C) on the host pool. Every kernel keeps at least one
// worker.
func (x *Executor) rebalanceLocked() {
	switch n := len(x.running); n {
	case 0: // an idle pool has nothing to size
	case 1:
		x.running[0].retarget(x.Budget)
	default:
		profs := make([]*profile.Profile, n)
		for i, t := range x.running {
			profs[i] = t.prof
		}
		for i, w := range sched.Layout(x.Budget, profs, nil) {
			x.running[i].retarget(max(w, 1))
		}
	}
}

// retarget assigns t its worker count, signalling a retreat on a change.
func (t *execTask) retarget(w int) {
	if t.target != w {
		t.target = w
		t.queue.Retreat()
	}
}

// record appends to the decision log, overwriting the oldest entry once the
// ring is full. Caller holds x.mu.
func (x *Executor) record(d sched.Decision) {
	if len(x.log) < decisionLogCap {
		x.log = append(x.log, d)
	} else {
		x.log[x.logged%decisionLogCap] = d
	}
	x.logged++
}

// Decisions returns the decision log — solo and corun admissions with their
// worker ranges, profiles, panics, vanilla fallbacks and abandoned launches —
// oldest first. It holds the most recent decisionLogCap decisions; older ones
// have been dropped. At is zero: the executor runs on the wall clock.
func (x *Executor) Decisions() []sched.Decision {
	x.mu.Lock()
	defer x.mu.Unlock()
	oldest := 0
	if len(x.log) == decisionLogCap {
		oldest = int(x.logged % decisionLogCap)
	}
	return append(append([]sched.Decision(nil), x.log[oldest:]...), x.log[:oldest]...)
}

// RunningCount reports the live kernel count (for tests).
func (x *Executor) RunningCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.running)
}

// Profile returns a kernel's recorded class after its first run.
func (x *Executor) Profile(name string) (policy.Class, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	p, ok := x.profiles[name]
	if !ok {
		return 0, false
	}
	return p.Class, true
}

// noteRunLocked counts one execution of the named kernel — a dispatched
// grid, whatever its outcome. The crashchaos harness sums these across
// daemon incarnations to prove exactly-once launch replay.
func (x *Executor) noteRunLocked(name string) {
	if x.runs == nil {
		x.runs = map[string]int{}
	}
	x.runs[name]++
}

// Runs reports how many times a kernel's grid was dispatched on this
// executor (profiling runs included).
func (x *Executor) Runs(name string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.runs[name]
}

// RestoreProfile pre-seeds a first-run classification recovered from the
// durable journal, so a restarted daemon skips the solo profiling run it
// already paid for. An existing (fresher) entry wins.
func (x *Executor) RestoreProfile(name string, class policy.Class, soloSec float64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.profiles[name]; ok {
		return
	}
	x.profiles[name] = x.hostProfile(name, class, soloSec)
}

// snapshotProfiles copies every recorded classification, in the form the
// checkpoint holds and a migration ships.
func (x *Executor) snapshotProfiles() map[string]profileSnap {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[string]profileSnap, len(x.profiles))
	for name, p := range x.profiles {
		out[name] = profileSnap{Class: int(p.Class), SoloSec: p.SoloSec}
	}
	return out
}

// ProfileSoloSec returns the recorded solo time of a classified kernel.
func (x *Executor) ProfileSoloSec(name string) (float64, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	p, ok := x.profiles[name]
	if !ok {
		return 0, false
	}
	return p.SoloSec, true
}
