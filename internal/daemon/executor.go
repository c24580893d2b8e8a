package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/internal/sched"
	"slate/internal/transform"
	"slate/internal/vtime"
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

// call runs one block of spec's body. A panicking block abandons only its
// own remaining work; the queue keeps draining so the launch terminates.
func (p *panicTrap) call(spec *kern.Spec, glob int) {
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

func (p *panicTrap) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// Executor runs registered Go kernels for real, with Slate's scheduling
// semantics mapped onto host CPUs: the "SM" pool is a worker-goroutine
// budget, and the executor is the host driver of sched's admission core
// (sched.Core), with waiters aging at sched.DefaultAgingBound. A kernel's
// first run is unprofiled, so it runs alone and is measured and classified;
// later runs corun where Table I pairs them, and arrivals and completions
// resize running kernels through the retreat signal and queue-cursor
// carry-over — the same machinery the injected device code uses (Listings
// 2-3), exercised end to end.
type Executor struct {
	// Budget is the total worker-goroutine pool (the host "SM count").
	Budget int
	// MaxConcurrent bounds how many kernels may share the pool (2, as in the
	// paper's evaluation; raise for N-way sharing).
	MaxConcurrent int
	// MaxRunSeconds is the wall-clock containment deadline per launch
	// (0 = unbounded). A launch still running past it is an overrun
	// violation: the core evicts it and strikes its kernel, and the launch is
	// abandoned with ErrKernelTimeout — its workers stop at the next queue
	// pull, its budget share goes to the survivors, and the daemon stays up.
	MaxRunSeconds float64
	// OnProfile, when set, observes every first-run classification — the
	// daemon's durability layer journals these so a restart keeps the warm
	// profile table instead of re-measuring every kernel. Called without the
	// executor lock held.
	OnProfile func(name string, class policy.Class, soloSec float64)

	mu       sync.Mutex
	core     sched.Core  // its log keeps the last decisionLogCap decisions
	epoch    time.Time   // the core's time zero
	grow     *time.Timer // the grow grace; made on first use
	growAt   time.Time   // when the armed grace ends
	profiles map[string]*profile.Profile
	runs     map[string]int
	// fallbacks counts NoteFallback's vanilla decisions exactly, whatever
	// the log has since dropped.
	fallbacks int
	// free holds the states of finished Run launches for the next ones.
	free []*runState
	// noRecycle makes every Run launch on a fresh state (tests only).
	noRecycle bool
}

// decisionLogCap bounds the decision log: a daemon logs every launch for as
// long as it runs, and observability needs the recent ones.
const decisionLogCap = 1024

// hostGrowGrace is the simulator's default grow grace, for the same reason.
const hostGrowGrace = 200 * time.Microsecond

// execTask is one launch on the pool.
type execTask struct {
	job       sched.Job
	spec      *kern.Spec
	queue     *transform.Queue // nil on the vanilla path
	target    int              // assigned workers, 0 until launched; under Executor.mu
	abandoned atomic.Bool      // set by the core's eviction
	// wake carries the launch to a task that queued. It is made the first
	// time the task queues and kept with it, so a recycled task queues
	// without allocating. queued is set, under Executor.mu, while the task
	// waits on it.
	wake   chan struct{}
	queued bool
}

// runState is everything one Run launch needs: the task the core schedules,
// the flattened grid and its queue, the panic trap, and the callbacks
// RunToCompletion and contain take, bound once when the state is made. A
// finished launch's state goes back on Executor.free, so a steady stream of
// launches runs without allocating — except a launch abandoned at the
// containment deadline: contain gave up waiting for its body, which may
// still be running against the state, so the state is left to the GC.
type runState struct {
	task    execTask
	tr      transform.Transformed
	queue   transform.Queue
	trap    panicTrap
	workers int // the worker count of the first worker set

	resize func(launch int) int
	body   func(glob int, id kern.Dim3)
	drive  func()
}

// newRunState makes a state and binds its callbacks.
func (x *Executor) newRunState() *runState {
	rs := &runState{}
	rs.task.queue = &rs.queue
	// Before every relaunch after a retreat: the freshly assigned worker
	// count, or -1 once the core evicted the launch.
	rs.resize = func(int) int {
		if rs.task.abandoned.Load() {
			return -1
		}
		x.mu.Lock()
		defer x.mu.Unlock()
		return rs.task.target
	}
	rs.body = func(glob int, _ kern.Dim3) { rs.trap.call(rs.task.spec, glob) }
	rs.drive = func() { transform.RunToCompletion(&rs.tr, &rs.queue, rs.workers, rs.resize, rs.body) }
	return rs
}

// runStateLocked takes a state off the free list, or makes one, set up to
// launch spec over tr. Caller holds x.mu.
func (x *Executor) runStateLocked(spec *kern.Spec, tr transform.Transformed) *runState {
	var rs *runState
	if n := len(x.free); n > 0 {
		rs = x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
	} else {
		rs = x.newRunState()
	}
	rs.tr = tr
	rs.queue.Reset(&rs.tr)
	rs.task.spec, rs.task.target = spec, 0
	rs.task.abandoned.Store(false)
	rs.trap.first = nil
	return rs
}

// releaseLocked puts a finished launch's state back on the free list,
// dropping its spec and job so the list pins neither. Caller holds x.mu.
func (x *Executor) releaseLocked(rs *runState) {
	if x.noRecycle {
		return
	}
	rs.task.spec, rs.task.job = nil, sched.Job{}
	x.free = append(x.free, rs)
}

// NewExecutor builds an executor with the given worker budget (<=0 selects
// 8).
func NewExecutor(budget int) *Executor {
	if budget <= 0 {
		budget = 8
	}
	x := &Executor{Budget: budget, MaxConcurrent: 2, epoch: time.Now(),
		profiles: map[string]*profile.Profile{}, runs: map[string]int{}}
	x.core = sched.Core{Driver: (*hostDriver)(x), Abandon: true, Log: sched.Log{Cap: decisionLogCap}}
	x.core.Contain(sched.DefaultAgingBound)
	return x
}

// hostProfile is a host-measured profile: the class and solo time of a first
// run, and a scaling curve linear over the pool — the host cannot measure one,
// because re-running a kernel body is not idempotent.
func (x *Executor) hostProfile(name string, class policy.Class, soloSec float64) *profile.Profile {
	return &profile.Profile{Kernel: name, Class: class, SoloSec: soloSec,
		Speed10: profile.ScalingSMs / float64(x.Budget)}
}

// now is the time the core's inputs carry, read from the monotonic clock
// only: a launch reads it twice, once to start and once to leave.
func (x *Executor) now() vtime.Time { return vtime.Time(time.Since(x.epoch)) }

// Run executes every block of spec via persistent workers, blocking until
// completion. The core admits it: a first run runs alone and is timed and
// classified; later runs corun where Table I pairs them.
func (x *Executor) Run(spec *kern.Spec, taskSize int) error {
	if spec.Exec == nil {
		return fmt.Errorf("daemon: kernel %q has no executable body", spec.Name)
	}
	var tr transform.Transformed
	if err := tr.Reset(spec.Grid, taskSize); err != nil {
		return err
	}
	x.mu.Lock()
	rs := x.runStateLocked(spec, tr)
	workers, started := x.admitLocked(&rs.task)
	rs.workers = workers
	x.mu.Unlock()
	// Drive the dispatch loop: relaunch after every retreat with the
	// freshly assigned worker count, carrying the queue cursor.
	timedOut := !x.contain(rs.drive)
	x.mu.Lock()
	now := x.now()
	sec := now.Sub(started).Seconds()
	var learned *profile.Profile
	perr := rs.trap.err()
	switch {
	case timedOut: // abandoned: no verdict on the body
	case perr != nil:
		// A panicking first run is not classified; the next launch of the
		// (presumably fixed) kernel profiles afresh.
		x.core.Log.Add(sched.Decision{At: now, Kernel: spec.Name, Action: "panic", Reason: perr.Error()})
	case rs.task.job.Prof == nil:
		sec = max(sec, 1e-9)
		class := policy.Classify(spec.TotalFLOPs()/sec/1e9, spec.TotalL2Bytes()/sec/1e9)
		learned = x.hostProfile(spec.Name, class, sec)
		x.profiles[spec.Name] = learned
		x.core.SetProfile(spec.Name, learned)
		x.core.Log.Add(sched.Decision{At: now, Kernel: spec.Name, Action: "profile",
			Reason: fmt.Sprintf("class=%v solo=%.3fms", class, sec*1e3)})
	}
	err := x.leaveLocked(now, &rs.task, timedOut)
	if err == nil {
		err = perr
	}
	if !timedOut {
		x.releaseLocked(rs)
	}
	onProfile := x.OnProfile
	x.mu.Unlock()
	if learned != nil && onProfile != nil {
		onProfile(spec.Name, learned.Class, learned.SoloSec)
	}
	return err
}

// admitLocked hands task to the core and blocks until the core launches it,
// returning its worker count and launch time. A queued task waits on its own
// channel, with x.mu released: the core wakes exactly the waiter it admits.
// Caller holds x.mu.
func (x *Executor) admitLocked(task *execTask) (int, vtime.Time) {
	task.job = sched.Job{Name: task.spec.Name, Prof: x.profiles[task.spec.Name], Vanilla: task.queue == nil, Owner: task}
	// The executor's settable policy applies from each arrival on. The host
	// driver's launch cannot fail, so neither can the arrival.
	x.core.NumSMs, x.core.MaxConcurrent = x.Budget, x.MaxConcurrent
	at := x.now()
	_ = x.core.Arrive(at, &task.job)
	if task.target == 0 {
		if task.wake == nil {
			task.wake = make(chan struct{}, 1)
		}
		task.queued = true
		x.mu.Unlock()
		<-task.wake
		x.mu.Lock()
		at = x.now()
	}
	return task.target, at
}

// leaveLocked takes a finished task out of the core: a departure, or — past
// the containment deadline — an overrun violation, which abandons the
// launch with ErrKernelTimeout. Caller holds x.mu.
func (x *Executor) leaveLocked(now vtime.Time, task *execTask, timedOut bool) error {
	if timedOut {
		x.core.Violation(now, &task.job, "overrun")
		return fmt.Errorf("daemon: kernel %q: %w", task.spec.Name, ErrKernelTimeout)
	}
	x.core.Depart(now, &task.job)
	return nil
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
// profiling, no retreat signal — a fixed worker pool draining the
// untransformed grid. The core admits it as a vanilla launch, so it runs
// alone and nothing joins it. It is the graceful-degradation target when
// injection or compilation fails (the paper's transparency contract: Slate
// must never make a program that ran before stop running). Panicking bodies
// are still contained and reported as ErrKernelPanic.
func (x *Executor) RunVanilla(spec *kern.Spec, _ int) error {
	if spec.Exec == nil {
		return fmt.Errorf("daemon: kernel %q has no executable body", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	blocks := spec.Grid.X * spec.Grid.Y
	task := &execTask{spec: spec}
	x.mu.Lock()
	workers, _ := x.admitLocked(task)
	x.mu.Unlock()
	workers = min(workers, blocks)
	trap := &panicTrap{}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !task.abandoned.Load() {
				glob := int(next.Add(1)) - 1
				if glob >= blocks {
					return
				}
				trap.call(spec, glob)
			}
		}()
	}
	timedOut := !x.contain(wg.Wait)
	x.mu.Lock()
	err := x.leaveLocked(x.now(), task, timedOut)
	x.mu.Unlock()
	if err != nil {
		return err
	}
	return trap.err()
}

// NoteFallback records a graceful-degradation decision (vanilla-path launch
// after an injection/compilation failure) in the decision log.
func (x *Executor) NoteFallback(name, reason string) {
	x.mu.Lock()
	x.core.Log.Add(sched.Decision{At: x.now(), Kernel: name, Action: "vanilla", Reason: reason})
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

// Decisions returns the most recent decisionLogCap decisions, oldest first:
// the core's, with worker ranges, plus profiles, panics and vanilla
// fallbacks. At is the time since the executor was built.
func (x *Executor) Decisions() []sched.Decision {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]sched.Decision(nil), x.core.Log.All()...)
}

// RunningCount reports the live kernel count (for tests).
func (x *Executor) RunningCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.core.Running()
}

// Profile returns a kernel's recorded class after its first run.
func (x *Executor) Profile(name string) (policy.Class, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if p, ok := x.profiles[name]; ok {
		return p.Class, true
	}
	return 0, false
}

// Runs reports how many times a kernel's grid was dispatched on this
// executor (profiling runs included), whatever the outcome. The crashchaos
// harness sums these across daemon incarnations to prove exactly-once
// launch replay.
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

// hostDriver is the Executor seen as the core's Driver. The core calls it
// under Executor.mu.
type hostDriver Executor

// Launch grants a task its worker count and wakes it if it was queued. A
// pool smaller than MaxConcurrent lays out empty ranges, so here and in
// Resize every kernel keeps at least one worker.
func (d *hostDriver) Launch(j *sched.Job, lo, hi int, _ bool) error {
	t := j.Owner.(*execTask)
	t.target = max(hi-lo+1, 1)
	d.runs[j.Name]++
	if t.queued {
		// Never blocks under the lock: the waiter took the last send before
		// it could queue again, and the channel holds one.
		t.queued = false
		t.wake <- struct{}{}
	}
	return nil
}

// Resize retargets a task's worker count, signalling a retreat.
func (d *hostDriver) Resize(j *sched.Job, lo, hi int) error {
	if t, w := j.Owner.(*execTask), max(hi-lo+1, 1); t.target != w {
		t.target = w
		t.queue.Retreat()
	}
	return nil
}

// Evict stops a task's workers at their next queue pull.
func (d *hostDriver) Evict(j *sched.Job) error {
	t := j.Owner.(*execTask)
	t.abandoned.Store(true)
	if t.queue != nil {
		t.queue.Retreat()
	}
	return nil
}

// Finish has nothing to do: each launch's own goroutine reports its outcome.
func (d *hostDriver) Finish(vtime.Time, *sched.Job) {}

// ArmGrow arms the grace timer and records when the grace ends.
func (d *hostDriver) ArmGrow() {
	x := (*Executor)(d)
	x.growAt = time.Now().Add(hostGrowGrace)
	if x.grow != nil {
		x.grow.Reset(hostGrowGrace)
		return
	}
	x.grow = time.AfterFunc(hostGrowGrace, func() { x.growFired(time.Now()) })
}

// growFired is the grace timer's handler, fired at now. A fire that lost the
// race with a cancel finds the grace disarmed; one that lost it with a cancel
// and a re-arm comes before the new grace ends, and is ignored too, so the
// survivors never grow early.
func (x *Executor) growFired(now time.Time) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if now.Before(x.growAt) {
		return
	}
	x.core.GraceExpired(x.now())
}

func (d *hostDriver) CancelGrow() { d.grow.Stop() }
