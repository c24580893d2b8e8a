// Package run drives whole applications (host setup, PCIe transfers, a
// kernel looped to the paper's ~30-second methodology, result readback)
// through a pluggable scheduling backend on the shared virtual clock. The
// CUDA, MPS, and Slate backends differ only in per-launch overheads and in
// how a kernel reaches the GPU; everything else — the Fig. 6 application
// anatomy — is common and lives here.
package run

import (
	"fmt"
	"slices"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
	"slate/workloads"
)

// Job is one application instance to run.
type Job struct {
	App *workloads.App
	// Reps is the kernel launch count (the ~30s loop of §V-A3).
	Reps int
	// StartDelaySec delays the application's arrival (0 = starts at time
	// zero). Cloud-trace experiments use it for staggered arrivals.
	StartDelaySec float64
	// KernelAt, if non-nil, supplies the kernel for each rep — iterative
	// applications like Gaussian elimination launch a different (shrinking)
	// kernel every step. Nil launches App.Kernel every rep.
	KernelAt func(rep int) *kern.Spec
}

// kernelFor resolves the kernel to launch for a rep.
func (j Job) kernelFor(rep int) *kern.Spec {
	if j.KernelAt != nil {
		return j.KernelAt(rep)
	}
	return j.App.Kernel
}

// Result is one application's measured execution.
type Result struct {
	Code  string
	Start vtime.Time
	End   vtime.Time
	// KernelSec is the total in-kernel execution time.
	KernelSec float64
	// HostSec covers setup, transfers, and launch API overhead.
	HostSec float64
	// CommSec is client-daemon communication (MPS and Slate).
	CommSec float64
	// InjectSec is code injection + runtime compilation (Slate).
	InjectSec float64
	// Launches counts completed kernel executions.
	Launches int
	// Aggregated device counters over all launches (Table IV inputs).
	FLOPs, L2Bytes, DRAMBytes, Instr float64
	Atomics                          int64
}

// AppSec returns the application's total execution time in seconds.
func (r Result) AppSec() float64 { return r.End.Sub(r.Start).Seconds() }

// Overheads describes a backend's host-side costs for one kernel launch.
type Overheads struct {
	// HostSec is plain API cost (counted as host time).
	HostSec float64
	// CommSec is client-daemon communication.
	CommSec float64
	// InjectSec is injection/compilation (first launch of a kernel).
	InjectSec float64
}

// Backend abstracts how kernels reach the GPU.
type Backend interface {
	// Name identifies the scheduler ("cuda", "mps", "slate").
	Name() string
	// LaunchOverheads returns the host-side costs of launching spec for
	// the rep-th time (rep starts at 0).
	LaunchOverheads(spec *kern.Spec, rep int) Overheads
	// Submit hands the kernel to the device; done fires at completion.
	Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error
	// TransferSeconds returns the host-device transfer time for n bytes.
	TransferSeconds(n int64) float64
}

// Driver executes jobs against a backend.
type Driver struct {
	Clock   *vtime.Clock
	Backend Backend

	pcie FIFO
}

// NewDriver builds a driver on the backend's clock.
func NewDriver(clock *vtime.Clock, b Backend) *Driver {
	return &Driver{Clock: clock, Backend: b}
}

// Run launches every job at time zero (concurrent processes), drives the
// clock to completion, and returns per-app results in job order.
func (d *Driver) Run(jobs []Job) ([]Result, error) {
	collect := d.Start(jobs)
	if n := d.Clock.Run(50_000_000); n >= 50_000_000 {
		return nil, fmt.Errorf("run: simulation did not converge")
	}
	return collect()
}

// Start schedules every job on the driver's clock without firing a single
// event, and returns the collector that finalizes results once the caller
// has driven the clock to quiescence. The split lets several drivers — each
// on its own clock — run as shards of a vtime.ShardedClock, with one Run
// call on the sharded clock driving them all.
func (d *Driver) Start(jobs []Job) func() ([]Result, error) {
	results := make([]Result, len(jobs))
	var firstErr error
	remaining := len(jobs)
	for i, job := range jobs {
		i, job := i, job
		start := func(vtime.Time) {
			results[i] = Result{Code: job.App.Code, Start: d.Clock.Now()}
			d.runApp(job, &results[i], func(err error) {
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("run: app %s: %w", job.App.Code, err)
				}
				remaining--
			})
		}
		if job.StartDelaySec > 0 {
			results[i] = Result{Code: job.App.Code}
			d.Clock.After(vtime.FromSeconds(job.StartDelaySec), start)
		} else {
			// Defer to the first event so Start itself fires nothing.
			d.Clock.After(0, start)
		}
	}
	return func() ([]Result, error) {
		if firstErr != nil {
			return nil, firstErr
		}
		if remaining != 0 {
			return nil, fmt.Errorf("run: %d applications never completed", remaining)
		}
		return results, nil
	}
}

// runApp walks one application's state machine: setup → H2D → reps ×
// (launch → kernel) → D2H.
func (d *Driver) runApp(job Job, res *Result, done func(error)) {
	setup := vtime.FromSeconds(job.App.HostSetupSeconds)
	res.HostSec += job.App.HostSetupSeconds
	d.Clock.After(setup, func(now vtime.Time) {
		d.transfer(job.App.InputBytes, res, func(now vtime.Time) {
			d.loop(job, res, func(err error) {
				if err != nil {
					done(err)
					return
				}
				d.transfer(job.App.OutputBytes, res, func(now vtime.Time) {
					res.End = now
					done(nil)
				})
			})
		})
	})
}

// transfer serializes host-device copies on the shared PCIe link. Zero-byte
// transfers are elided entirely.
func (d *Driver) transfer(bytes int64, res *Result, next func(vtime.Time)) {
	if bytes <= 0 {
		next(d.Clock.Now())
		return
	}
	d.pcie.Acquire(d.Clock, func(now vtime.Time) {
		sec := d.Backend.TransferSeconds(bytes)
		res.HostSec += sec
		d.Clock.After(vtime.FromSeconds(sec), func(t vtime.Time) {
			d.pcie.Release(d.Clock)
			next(t)
		})
	})
}

// loop issues job.Reps kernel launches back to back, synchronizing after
// each as the benchmarks do, then calls done.
func (d *Driver) loop(job Job, res *Result, done func(error)) {
	a := &appLoop{d: d, job: job, res: res, done: done}
	a.submitFn, a.finishFn = a.submit, a.finish
	a.next()
}

// appLoop is one application's launch loop. Its two callbacks are bound once,
// so a rep allocates no closure.
type appLoop struct {
	d    *Driver
	job  Job
	res  *Result
	done func(error)
	rep  int
	spec *kern.Spec // the current rep's kernel

	submitFn func(vtime.Time)
	finishFn func(vtime.Time, engine.Metrics)
}

// next pays the host-side launch overheads of the next rep, then submits it.
func (a *appLoop) next() {
	if a.rep >= a.job.Reps {
		a.done(nil)
		return
	}
	a.spec = a.job.kernelFor(a.rep)
	ov := a.d.Backend.LaunchOverheads(a.spec, a.rep)
	a.res.HostSec += ov.HostSec
	a.res.CommSec += ov.CommSec
	a.res.InjectSec += ov.InjectSec
	a.d.Clock.After(vtime.FromSeconds(ov.HostSec+ov.CommSec+ov.InjectSec), a.submitFn)
}

func (a *appLoop) submit(vtime.Time) {
	if err := a.d.Backend.Submit(a.spec, a.finishFn); err != nil {
		a.done(err)
	}
}

// finish adds a completed rep's metrics to the result and starts the next.
func (a *appLoop) finish(_ vtime.Time, m engine.Metrics) {
	res := a.res
	res.KernelSec += m.Duration().Seconds()
	res.Launches++
	res.FLOPs += m.FLOPs
	res.L2Bytes += m.L2Bytes
	res.DRAMBytes += m.DRAMBytes
	res.Instr += m.Instr
	res.Atomics += m.Atomics
	a.rep++
	a.next()
}

// FIFO is a strict-FIFO mutex on virtual time, used for the PCIe link and
// for vanilla CUDA's one-kernel-at-a-time device token.
type FIFO struct {
	busy    bool
	waiters []func(vtime.Time)
}

// Acquire runs fn once the resource is free, in request order.
func (f *FIFO) Acquire(clock *vtime.Clock, fn func(vtime.Time)) {
	if !f.busy {
		f.busy = true
		fn(clock.Now())
		return
	}
	f.waiters = append(f.waiters, fn)
}

// Release frees the resource, handing it to the next waiter at the current
// instant (without recursing). The waiters shift down in place, so the queue
// keeps its backing array.
func (f *FIFO) Release(clock *vtime.Clock) {
	if len(f.waiters) == 0 {
		f.busy = false
		return
	}
	next := f.waiters[0]
	f.waiters = slices.Delete(f.waiters, 0, 1)
	clock.After(0, next)
}

// Reps30s returns the rep count that makes the kernel's solo loop take
// about target seconds — the paper's data collection methodology (§V-A3).
func Reps30s(soloKernelSec, target float64) int {
	if soloKernelSec <= 0 {
		return 1
	}
	n := int(target / soloKernelSec)
	if n < 1 {
		n = 1
	}
	return n
}
