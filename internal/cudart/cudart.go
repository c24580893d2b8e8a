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
	b.gpu.Acquire(b.Clock, func(now vtime.Time) {
		start := func(vtime.Time) {
			h, err := b.Eng.Launch(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
			if err != nil {
				// Release so other contexts are not wedged, then surface the
				// failure through the completion callback with zero metrics.
				b.gpu.Release(b.Clock)
				done(b.Clock.Now(), engine.Metrics{})
				return
			}
			b.Eng.OnComplete(h, func(at vtime.Time) {
				b.gpu.Release(b.Clock)
				m := h.Metrics()
				b.Eng.Release(h)
				done(at, m)
			})
		}
		if b.lastCtx != nil && b.lastCtx != spec {
			b.Switches++
			b.lastCtx = spec
			b.Clock.After(vtime.FromSeconds(b.Dev.ContextSwitchSeconds), start)
			return
		}
		b.lastCtx = spec
		start(b.Clock.Now())
	})
	return nil
}
