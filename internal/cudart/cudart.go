// Package cudart is the vanilla CUDA runtime baseline (§V-A2): every
// process owns its own context, and with multiple active contexts the
// device time-slices at kernel granularity — one kernel owns the whole GPU,
// then the next context's kernel runs, paying a context-switch cost at each
// hand-off. There is no spatial sharing of any kind.
package cudart

import (
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/run"
	"slate/internal/vtime"
)

// Backend implements run.Backend for vanilla CUDA.
type Backend struct {
	Dev   *device.Device
	Clock *vtime.Clock
	Eng   *engine.Engine

	gpu     run.FIFO
	lastCtx *kern.Spec
	// Switches counts context switches, an observable for tests.
	Switches int
	// free holds finished launches for Submit to reuse.
	free []*launch
}

// New builds a CUDA backend with its own engine on the shared clock.
func New(dev *device.Device, clock *vtime.Clock, model engine.PerfModel) *Backend {
	return &Backend{Dev: dev, Clock: clock, Eng: engine.New(dev, clock, model)}
}

// Name implements run.Backend.
func (b *Backend) Name() string { return "cuda" }

// LaunchOverheads implements run.Backend: just the kernel-launch API cost.
func (b *Backend) LaunchOverheads(*kern.Spec, int) run.Overheads {
	return run.Overheads{HostSec: b.Dev.KernelLaunchSeconds}
}

// TransferSeconds implements run.Backend.
func (b *Backend) TransferSeconds(n int64) float64 { return b.Dev.PCIe.TransferSeconds(n) }

// Submit implements run.Backend: the kernel waits for exclusive device
// ownership, pays a context switch if the previous kernel belonged to a
// different context, runs under the hardware scheduler, and releases the
// device on completion.
func (b *Backend) Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error {
	var l *launch
	if n := len(b.free); n > 0 {
		l = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		l = &launch{b: b}
		l.acquiredFn, l.startFn, l.completeFn = l.acquired, l.start, l.complete
	}
	l.spec, l.done = spec, done
	b.gpu.Acquire(b.Clock, l.acquiredFn)
	return nil
}

// launch is one submitted kernel. Launches are reused once finished, with
// their three callbacks bound once, so a submit allocates nothing.
type launch struct {
	b    *Backend
	spec *kern.Spec
	h    *engine.Handle
	done func(vtime.Time, engine.Metrics)

	acquiredFn, startFn, completeFn func(vtime.Time)
}

// acquired runs once the launch owns the device: it starts the kernel, after
// a context switch if the previous kernel belonged to another context.
func (l *launch) acquired(vtime.Time) {
	b := l.b
	if b.lastCtx != nil && b.lastCtx != l.spec {
		b.Switches++
		b.lastCtx = l.spec
		b.Clock.After(vtime.FromSeconds(b.Dev.ContextSwitchSeconds), l.startFn)
		return
	}
	b.lastCtx = l.spec
	l.start(b.Clock.Now())
}

func (l *launch) start(vtime.Time) {
	b := l.b
	h, err := b.Eng.Launch(l.spec, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		// Release so other contexts are not wedged, then surface the
		// failure through the completion callback with zero metrics.
		b.gpu.Release(b.Clock)
		l.finish(b.Clock.Now(), engine.Metrics{})
		return
	}
	l.h = h
	b.Eng.OnComplete(h, l.completeFn)
}

// complete is the engine's completion callback: it releases the device and
// the handle.
func (l *launch) complete(at vtime.Time) {
	b := l.b
	b.gpu.Release(b.Clock)
	m := l.h.Metrics()
	b.Eng.Release(l.h)
	l.finish(at, m)
}

// finish hands the launch back to the free list, then reports m.
func (l *launch) finish(at vtime.Time, m engine.Metrics) {
	done := l.done
	l.spec, l.h, l.done = nil, nil, nil
	l.b.free = append(l.b.free, l)
	done(at, m)
}
