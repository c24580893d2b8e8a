package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/policy"
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
// budget; a solo kernel owns the whole budget, complementary kernels split
// it, and arrivals/completions resize running kernels through the retreat
// signal and queue-cursor carry-over — the same machinery the injected
// device code uses (Listings 2-3), exercised end to end.
type Executor struct {
	// Budget is the total worker-goroutine pool (the host "SM count").
	Budget int
	// MaxConcurrent bounds how many kernels may share the pool (default 2,
	// as in the paper's evaluation; raise for N-way sharing).
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
	profiles map[string]*execProfile
	runs     map[string]int
	// log is the decision log: a ring of the last decisionLogCap decisions,
	// logged counting every one ever recorded (so log[logged%cap] is the
	// oldest once the ring is full). fallbacks counts the fallback decisions
	// among them exactly, whatever the ring has since dropped.
	log       []decision
	logged    uint64
	fallbacks int
}

// decisionLogCap bounds the decision log: a daemon records one decision per
// launch for as long as it runs, and observability needs the recent ones.
const decisionLogCap = 1024

// decisionKind selects the sentence a decision renders as.
type decisionKind uint8

const (
	decSolo decisionKind = iota
	decCorun
	decProfile
	decPanic
	decFallback
	decTimeoutProfiling
	decTimeout
	decTimeoutVanilla
)

// decision is one decision-log entry, kept as the values it was made from
// and formatted only when somebody reads the log: recording one on the launch
// path costs a struct copy, not a Sprintf.
type decision struct {
	kind decisionKind
	// name is the deciding kernel; other is the corun partner's name, or the
	// detail text of a panic or fallback.
	name, other string
	// n and m are the two worker counts (solo uses n), or the claimed and
	// total block counts of a timeout.
	n, m int
	// sec is the solo time of a profile, or the deadline of a timeout.
	sec   float64
	class policy.Class
}

func (d decision) String() string {
	switch d.kind {
	case decSolo:
		return fmt.Sprintf("solo %s(%d workers)", d.name, d.n)
	case decCorun:
		return fmt.Sprintf("corun %s(%d workers) + %s(%d workers)", d.name, d.n, d.other, d.m)
	case decProfile:
		return fmt.Sprintf("profile %s: class=%v solo=%.3fms", d.name, d.class, d.sec*1e3)
	case decPanic:
		return fmt.Sprintf("panic %s: %s", d.name, d.other)
	case decFallback:
		return fmt.Sprintf("fallback %s: vanilla path (%s)", d.name, d.other)
	case decTimeoutProfiling:
		return fmt.Sprintf("timeout %s: abandoned during profiling after %.1fs", d.name, d.sec)
	case decTimeout:
		return fmt.Sprintf("timeout %s: abandoned after %.1fs, %d of %d blocks claimed", d.name, d.sec, d.n, d.m)
	default:
		return fmt.Sprintf("timeout %s: vanilla launch abandoned after %.1fs", d.name, d.sec)
	}
}

type execProfile struct {
	class   policy.Class
	soloSec float64
}

type execTask struct {
	spec      *kern.Spec
	class     policy.Class
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
		profiles: map[string]*execProfile{}, runs: map[string]int{}}
	x.cond = sync.NewCond(&x.mu)
	return x
}

// Run executes every block of spec via persistent workers, blocking until
// completion. The first run of a kernel is measured solo and classified;
// later runs participate in workload-aware corunning.
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
	prof, profiled := x.profiles[spec.Name]
	if !profiled {
		// First run: wait for an idle device, run solo, classify.
		for len(x.running) > 0 {
			x.cond.Wait()
		}
		x.noteRunLocked(spec.Name)
		x.mu.Unlock()
		start := time.Now()
		q := transform.NewQueue(tr)
		if !x.contain(func() { transform.RunParallel(tr, q, x.Budget, trap.wrap(spec)) }) {
			q.Retreat()
			x.mu.Lock()
			x.record(decision{kind: decTimeoutProfiling, name: spec.Name, sec: x.MaxRunSeconds})
			x.cond.Broadcast()
			x.mu.Unlock()
			return fmt.Errorf("daemon: profiling %q: %w", spec.Name, ErrKernelTimeout)
		}
		sec := time.Since(start).Seconds()
		if sec <= 0 {
			sec = 1e-9
		}
		x.mu.Lock()
		if perr := trap.err(); perr != nil {
			// A panicking first run is not classified; the next launch of
			// the (presumably fixed) kernel profiles afresh.
			x.record(decision{kind: decPanic, name: spec.Name, other: perr.Error()})
			x.cond.Broadcast()
			x.mu.Unlock()
			return perr
		}
		gflops := spec.TotalFLOPs() / sec / 1e9
		bw := spec.TotalL2Bytes() / sec / 1e9
		class := policy.Classify(gflops, bw)
		x.profiles[spec.Name] = &execProfile{class: class, soloSec: sec}
		x.record(decision{kind: decProfile, name: spec.Name, class: class, sec: sec})
		x.cond.Broadcast()
		onProfile := x.OnProfile
		x.mu.Unlock()
		if onProfile != nil {
			onProfile(spec.Name, class, sec)
		}
		return nil
	}

	// Admission: wait until we can run solo or corun with every current
	// kernel (the Fig. 4 decision, applied pairwise for N-way pools).
	for {
		if len(x.running) == 0 {
			break
		}
		if len(x.running) < x.maxConcurrent() && x.corunsWithAllLocked(prof.class) {
			break
		}
		x.cond.Wait()
	}

	task := &execTask{
		spec:    spec,
		class:   prof.class,
		queue:   transform.NewQueue(tr),
		started: time.Now(),
	}
	x.running = append(x.running, task)
	x.noteRunLocked(spec.Name)
	x.rebalanceLocked()
	if len(x.running) == 2 {
		a, b := x.running[0], x.running[1]
		x.record(decision{kind: decCorun, name: a.spec.Name, n: a.target, other: b.spec.Name, m: b.target})
	} else {
		x.record(decision{kind: decSolo, name: spec.Name, n: task.target})
	}
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
	if timedOut {
		x.record(decision{kind: decTimeout, name: spec.Name, sec: x.MaxRunSeconds, n: task.queue.Progress(), m: tr.NumBlocks})
		x.cond.Broadcast()
		x.mu.Unlock()
		return fmt.Errorf("daemon: kernel %q: %w", spec.Name, ErrKernelTimeout)
	}
	if perr := trap.err(); perr != nil {
		x.record(decision{kind: decPanic, name: spec.Name, other: perr.Error()})
		x.cond.Broadcast()
		x.mu.Unlock()
		return perr
	}
	x.cond.Broadcast()
	x.mu.Unlock()
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
		x.record(decision{kind: decTimeoutVanilla, name: spec.Name, sec: x.MaxRunSeconds})
		x.mu.Unlock()
		return fmt.Errorf("daemon: kernel %q: %w", spec.Name, ErrKernelTimeout)
	}
	return trap.err()
}

// NoteFallback records a graceful-degradation decision (vanilla-path launch
// after an injection/compilation failure) in the decision log.
func (x *Executor) NoteFallback(name, reason string) {
	x.mu.Lock()
	x.record(decision{kind: decFallback, name: name, other: reason})
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

func (x *Executor) maxConcurrent() int {
	if x.MaxConcurrent < 1 {
		return 2
	}
	return x.MaxConcurrent
}

func (x *Executor) corunsWithAllLocked(class policy.Class) bool {
	for _, r := range x.running {
		if !policy.Corun(r.class, class) {
			return false
		}
	}
	return true
}

// rebalanceLocked reassigns the worker budget to the running set and
// signals retreats to kernels whose share changed — dynamic kernel resizing
// (§III-C) on the host pool. Memory-heavy classes need fewer host workers
// than compute-heavy ones in this analog, so they carry weight 1 against 2
// for everyone else.
func (x *Executor) rebalanceLocked() {
	n := len(x.running)
	if n == 0 {
		return
	}
	if n == 1 {
		t := x.running[0]
		if t.target != x.Budget {
			t.target = x.Budget
			t.queue.Retreat()
		}
		return
	}
	weights := make([]int, n)
	totalW := 0
	for i, t := range x.running {
		w := 2
		if t.class == policy.HM || t.class == policy.MM {
			w = 1
		}
		weights[i] = w
		totalW += w
	}
	assigned := 0
	for i, t := range x.running {
		w := x.Budget * weights[i] / totalW
		if w < 1 {
			w = 1
		}
		if i == n-1 {
			w = x.Budget - assigned
			if w < 1 {
				w = 1
			}
		}
		assigned += w
		if t.target != w {
			t.target = w
			t.queue.Retreat()
		}
	}
}

// record appends to the decision log, overwriting the oldest entry once the
// ring is full. Caller holds x.mu.
func (x *Executor) record(d decision) {
	if len(x.log) < decisionLogCap {
		x.log = append(x.log, d)
	} else {
		x.log[x.logged%decisionLogCap] = d
	}
	x.logged++
	if d.kind == decFallback {
		x.fallbacks++
	}
}

// Decisions renders the decision log — corun/solo choices, profiles,
// fallbacks, containment — oldest first. It holds the most recent
// decisionLogCap decisions; older ones have been dropped.
func (x *Executor) Decisions() []string {
	x.mu.Lock()
	ring := append([]decision(nil), x.log...)
	oldest := 0
	if len(ring) == decisionLogCap {
		oldest = int(x.logged % decisionLogCap)
	}
	x.mu.Unlock()
	out := make([]string, 0, len(ring))
	for i := range ring {
		out = append(out, ring[(oldest+i)%len(ring)].String())
	}
	return out
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
	return p.class, true
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
	x.profiles[name] = &execProfile{class: class, soloSec: soloSec}
}

// snapshotProfiles copies every recorded classification, in the form the
// checkpoint holds and a migration ships.
func (x *Executor) snapshotProfiles() map[string]profileSnap {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[string]profileSnap, len(x.profiles))
	for name, p := range x.profiles {
		out[name] = profileSnap{Class: int(p.class), SoloSec: p.soloSec}
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
	return p.soloSec, true
}
