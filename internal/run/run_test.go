package run

import (
	"fmt"
	"testing"

	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/vtime"
	"slate/workloads"
)

// fakeBackend executes kernels in a fixed virtual duration and records
// launches.
type fakeBackend struct {
	clock     *vtime.Clock
	kernelSec float64
	overheads Overheads
	launches  int
	transfers []int64
}

func (f *fakeBackend) Name() string { return "fake" }

func (f *fakeBackend) LaunchOverheads(*kern.Spec, int) Overheads { return f.overheads }

func (f *fakeBackend) Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error {
	f.launches++
	start := f.clock.Now()
	f.clock.After(vtime.FromSeconds(f.kernelSec), func(at vtime.Time) {
		m := engine.Metrics{Launched: start, Completed: at}
		done(at, m)
	})
	return nil
}

func (f *fakeBackend) TransferSeconds(n int64) float64 {
	f.transfers = append(f.transfers, n)
	return float64(n) / 10e9
}

func app(code string, in, out int64, setup float64) *workloads.App {
	return &workloads.App{
		Code: code, FullName: code,
		Kernel: &kern.Spec{
			Name: code, Grid: kern.D1(10), BlockDim: kern.D1(64),
			FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1, ComputeEff: 0.5,
		},
		InputBytes: in, OutputBytes: out, HostSetupSeconds: setup,
	}
}

func TestDriverAppAnatomy(t *testing.T) {
	clk := vtime.NewClock()
	fb := &fakeBackend{clock: clk, kernelSec: 0.010, overheads: Overheads{HostSec: 0.001, CommSec: 0.002, InjectSec: 0.003}}
	d := NewDriver(clk, fb)
	rs, err := d.Run([]Job{{App: app("A", 10e9, 20e9, 0.5), Reps: 3}})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Launches != 3 || fb.launches != 3 {
		t.Fatalf("launches = %d/%d, want 3", r.Launches, fb.launches)
	}
	// Host = setup + transfers (1s + 2s) + 3 × 1ms API.
	wantHost := 0.5 + 1.0 + 2.0 + 3*0.001
	if diff := r.HostSec - wantHost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("HostSec = %v, want %v", r.HostSec, wantHost)
	}
	if diff := r.CommSec - 3*0.002; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("CommSec = %v, want 0.006", r.CommSec)
	}
	if diff := r.InjectSec - 3*0.003; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("InjectSec = %v, want 0.009", r.InjectSec)
	}
	if diff := r.KernelSec - 3*0.010; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("KernelSec = %v, want 0.030", r.KernelSec)
	}
	// App time = everything, serialized in this single-app case.
	want := wantHost + 0.006 + 0.009 + 0.030
	if diff := r.AppSec() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("AppSec = %v, want %v", r.AppSec(), want)
	}
	if len(fb.transfers) != 2 || fb.transfers[0] != 10e9 || fb.transfers[1] != 20e9 {
		t.Fatalf("transfers = %v", fb.transfers)
	}
}

func TestDriverPCIeSerializes(t *testing.T) {
	clk := vtime.NewClock()
	fb := &fakeBackend{clock: clk, kernelSec: 0.001}
	d := NewDriver(clk, fb)
	// Two apps with zero setup and 10 GB inputs: the second's H2D must wait
	// for the first (1 s each on the 10 GB/s fake link).
	rs, err := d.Run([]Job{
		{App: app("A", 10e9, 0, 0), Reps: 1},
		{App: app("B", 10e9, 0, 0), Reps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// B's kernel cannot start before ~2 s (two serialized transfers).
	if rs[1].End.Sub(0).Seconds() < 2.0 {
		t.Fatalf("B finished at %v; PCIe transfers did not serialize", rs[1].End)
	}
	// Output transfers of size 0 should not be charged.
	if rs[0].AppSec() > 1.1 {
		t.Fatalf("A took %v, want ≈1s", rs[0].AppSec())
	}
}

type errBackend struct{ fakeBackend }

func (e *errBackend) Submit(*kern.Spec, func(vtime.Time, engine.Metrics)) error {
	return fmt.Errorf("boom")
}

func TestDriverPropagatesSubmitError(t *testing.T) {
	clk := vtime.NewClock()
	eb := &errBackend{fakeBackend{clock: clk}}
	d := NewDriver(clk, eb)
	if _, err := d.Run([]Job{{App: app("A", 1, 1, 0.01), Reps: 1}}); err == nil {
		t.Fatal("submit error swallowed")
	}
}

func TestReps30s(t *testing.T) {
	if got := Reps30s(0.010, 30); got != 3000 {
		t.Fatalf("Reps30s(10ms, 30s) = %d, want 3000", got)
	}
	if got := Reps30s(100, 30); got != 1 {
		t.Fatalf("long kernels still run once, got %d", got)
	}
	if got := Reps30s(0, 30); got != 1 {
		t.Fatalf("zero solo time should clamp to 1, got %d", got)
	}
}

func TestFIFOOrdering(t *testing.T) {
	clk := vtime.NewClock()
	var f FIFO
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		f.Acquire(clk, func(vtime.Time) {
			order = append(order, i)
			clk.After(10, func(vtime.Time) { f.Release(clk) })
		})
	}
	clk.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestDriverAccumulatesDeviceCounters(t *testing.T) {
	clk := vtime.NewClock()
	fb := &counterBackend{clock: clk}
	d := NewDriver(clk, fb)
	rs, err := d.Run([]Job{{App: app("A", 1, 1, 0.001), Reps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].FLOPs != 4*100 || rs[0].L2Bytes != 4*200 || rs[0].Atomics != 4*7 {
		t.Fatalf("counters = %+v", rs[0])
	}
}

type counterBackend struct {
	clock *vtime.Clock
}

func (c *counterBackend) Name() string                              { return "counter" }
func (c *counterBackend) LaunchOverheads(*kern.Spec, int) Overheads { return Overheads{} }
func (c *counterBackend) TransferSeconds(int64) float64             { return 0 }
func (c *counterBackend) Submit(spec *kern.Spec, done func(vtime.Time, engine.Metrics)) error {
	c.clock.After(10, func(at vtime.Time) {
		done(at, engine.Metrics{Completed: at, FLOPs: 100, L2Bytes: 200, Atomics: 7})
	})
	return nil
}
