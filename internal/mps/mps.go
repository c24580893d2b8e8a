// Package mps is the NVIDIA Multi-Process Service baseline (§II, §V-A2):
// a server funnels every client's CUDA context into one device context, so
// kernels from different processes can be resident simultaneously — but
// scheduling stays with the hardware and its leftover policy: a later
// kernel only receives SMs the earlier kernel's in-flight wave has left
// free. For the paper's full-size workloads that means near-consecutive
// execution with a small tail overlap, at the price of an extra
// client-server hop per API call.
package mps

import (
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/run"
	"slate/internal/vtime"
)

// serverRTTSeconds is the client→MPS-server→driver hop added to each
// launch; it is why "MPS generally has a slightly larger application time
// than CUDA" (§V-D2).
const serverRTTSeconds = 8e-6

// Backend implements run.Backend for MPS.
type Backend struct {
	Dev   *device.Device
	Clock *vtime.Clock
	Eng   *engine.Engine

	// free holds finished launches for Submit to reuse.
	free []*launch
}

// launch is one submitted kernel. Launches are reused once finished, with
// completeFn bound once, so a submit allocates nothing.
type launch struct {
	b          *Backend
	h          *engine.Handle
	done       func(vtime.Time, engine.Metrics)
	completeFn func(vtime.Time)
}

// complete is the engine's completion callback: it hands the handle and the
// launch back, then reports the metrics.
func (l *launch) complete(at vtime.Time) {
	m, done := l.h.Metrics(), l.done
	l.b.Eng.Release(l.h)
	l.h, l.done = nil, nil
	l.b.free = append(l.b.free, l)
	done(at, m)
}

// New builds an MPS backend with its own engine on the shared clock.
func New(dev *device.Device, clock *vtime.Clock, model engine.PerfModel) *Backend {
	return &Backend{Dev: dev, Clock: clock, Eng: engine.New(dev, clock, model)}
}

// Name implements run.Backend.
func (b *Backend) Name() string { return "mps" }

// LaunchOverheads implements run.Backend: the launch API plus one hop
// through the MPS server.
func (b *Backend) LaunchOverheads(*kern.Spec, int) run.Overheads {
	return run.Overheads{HostSec: b.Dev.KernelLaunchSeconds, CommSec: serverRTTSeconds}
}

// TransferSeconds implements run.Backend.
func (b *Backend) TransferSeconds(n int64) float64 { return b.Dev.PCIe.TransferSeconds(n) }

// Submit implements run.Backend: context funneling means the kernel goes
// straight to the device; the engine's breadth-first block spread and
// arrival-priority allocation reproduce Hyper-Q with the leftover policy.
func (b *Backend) Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error {
	h, err := b.Eng.Launch(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		return err
	}
	var l *launch
	if n := len(b.free); n > 0 {
		l = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		l = &launch{b: b}
		l.completeFn = l.complete
	}
	l.h, l.done = h, done
	b.Eng.OnComplete(h, l.completeFn)
	return nil
}
