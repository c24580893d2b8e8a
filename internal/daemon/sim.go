// Package daemon hosts the Slate server side. This file provides the
// simulation backend: the daemon's launch pipeline (client command channel
// → code injector → NVRTC compile cache → workload-aware scheduler) with
// every cost modeled on the virtual clock, used by the harness to
// regenerate Figs. 6 and 7. The real wire-protocol daemon lives alongside
// it in this package.
package daemon

import (
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/run"
	"slate/internal/sched"
	"slate/internal/vtime"
)

// Costs models the Slate-specific overheads of Table V's "outside kernel
// execution" rows. Defaults reproduce Fig. 6's measured fractions: ~4% of
// application time on client-daemon communication and ~1.5% on injection
// plus runtime compilation.
type Costs struct {
	// CommandRTTSeconds is one named-pipe round trip between client and
	// daemon.
	CommandRTTSeconds float64
	// RTTsPerLaunch counts command-channel round trips per kernel launch
	// (launch, synchronize, status).
	RTTsPerLaunch int
	// InjectSeconds is the FLEX scan plus source rewrite of one kernel.
	InjectSeconds float64
	// CompileSeconds is one NVRTC compilation; the result is cached per
	// kernel, so it is paid once (§IV-B).
	CompileSeconds float64
}

// DefaultCosts returns the calibrated overhead constants.
func DefaultCosts() Costs {
	return Costs{
		CommandRTTSeconds: 15e-6,
		RTTsPerLaunch:     2,
		InjectSeconds:     0.05,
		CompileSeconds:    0.40,
	}
}

// SimBackend implements run.Backend with the full Slate pipeline.
type SimBackend struct {
	Dev   *device.Device
	Clock *vtime.Clock
	Eng   *engine.Engine
	Sched *sched.Scheduler
	Prof  *profile.Profiler
	Costs Costs

	compiled map[string]bool
}

// NewSim builds the simulated Slate daemon on the shared clock around a
// caller-owned profiler. Profiles are pure functions of (kernel content,
// device, model), so a profiler shared across many backends — as the
// parallel harness does across experiment cells — yields exactly the
// per-backend results while measuring each kernel once.
func NewSim(dev *device.Device, clock *vtime.Clock, model engine.PerfModel, prof *profile.Profiler) *SimBackend {
	eng := engine.New(dev, clock, model)
	return &SimBackend{
		Dev:      dev,
		Clock:    clock,
		Eng:      eng,
		Sched:    sched.New(dev, eng, prof),
		Prof:     prof,
		Costs:    DefaultCosts(),
		compiled: map[string]bool{},
	}
}

// Name implements run.Backend.
func (b *SimBackend) Name() string { return "slate" }

// LaunchOverheads implements run.Backend: the launch API, the command
// round trips, and — for a kernel's first launch — injection plus NVRTC
// compilation (cached thereafter, §IV-B).
func (b *SimBackend) LaunchOverheads(spec *kern.Spec, rep int) run.Overheads {
	ov := run.Overheads{
		HostSec: b.Dev.KernelLaunchSeconds,
		CommSec: float64(b.Costs.RTTsPerLaunch) * b.Costs.CommandRTTSeconds,
	}
	if !b.compiled[spec.Name] {
		b.compiled[spec.Name] = true
		ov.InjectSec = b.Costs.InjectSeconds + b.Costs.CompileSeconds
	}
	return ov
}

// TransferSeconds implements run.Backend. Slate's shared-buffer data
// channel moves bulk data without an extra copy, so the cost is the same
// PCIe transfer CUDA pays (§IV-A1).
func (b *SimBackend) TransferSeconds(n int64) float64 { return b.Dev.PCIe.TransferSeconds(n) }

// Submit implements run.Backend by handing the kernel to the
// workload-aware scheduler.
func (b *SimBackend) Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error {
	return b.Sched.Submit(spec, engine.DefaultTaskSize, done)
}
