package sched

import (
	"testing"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// memK is DRAM-bound (classifies H_M, full speed at 10 SMs).
func memK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e5, InstrPerBlock: 1e5, L2BytesPerBlock: 1 << 20,
		ComputeEff: 0.8, MemMLP: 8,
	}
}

// computeK is issue-bound (classifies H_C, scales with SMs).
func computeK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(256),
		FLOPsPerBlock: 1e8, InstrPerBlock: 1e5, L2BytesPerBlock: 1e4,
		ComputeEff: 0.8,
	}
}

// lowK is small and low-intensity (classifies L_C): few blocks, light work.
func lowK(name string, blocks int) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(128),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e5, L2BytesPerBlock: 2e5,
		ComputeEff: 0.02, OpsPerBlock: 1e6, MemMLP: 2,
	}
}

type rig struct {
	clk   *vtime.Clock
	eng   *engine.Engine
	sched *Scheduler
}

func newRig() *rig {
	dev := device.TitanXp()
	clk := vtime.NewClock()
	model := &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1}
	eng := engine.New(dev, clk, model)
	prof := profile.New(dev, model)
	return &rig{clk: clk, eng: eng, sched: New(dev, eng, prof)}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if n := r.clk.Run(5_000_000); n >= 5_000_000 {
		t.Fatal("simulation did not converge")
	}
}

func actions(s *Scheduler, kernel string) []string {
	var out []string
	for _, d := range s.Decisions() {
		if d.Kernel == kernel {
			out = append(out, d.Action)
		}
	}
	return out
}

func TestSoloKernelRunsOnFullDevice(t *testing.T) {
	r := newRig()
	var done bool
	var metrics engine.Metrics
	err := r.sched.Submit(memK("m", 2400), 10, func(_ vtime.Time, m engine.Metrics) {
		done = true
		metrics = m
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if !done {
		t.Fatal("completion callback did not fire")
	}
	if metrics.Duration() <= 0 {
		t.Fatal("no metrics delivered")
	}
	acts := actions(r.sched, "m")
	if len(acts) != 2 || acts[0] != "solo" || acts[1] != "complete" {
		t.Fatalf("decisions for m = %v, want [solo complete]", acts)
	}
	if r.sched.Running() != 0 || r.sched.Queued() != 0 {
		t.Fatal("scheduler state not drained")
	}
}

func TestComplementaryPairCoruns(t *testing.T) {
	r := newRig()
	finished := map[string]vtime.Time{}
	submit := func(spec *kern.Spec) {
		name := spec.Name
		if err := r.sched.Submit(spec, 10, func(at vtime.Time, _ engine.Metrics) {
			finished[name] = at
		}); err != nil {
			t.Fatal(err)
		}
	}
	submit(memK("mem", 2400))
	submit(lowK("low", 96))
	if r.sched.Running() != 2 {
		t.Fatalf("running = %d, want 2 (corun)", r.sched.Running())
	}
	r.run(t)
	if len(finished) != 2 {
		t.Fatalf("finished %d kernels, want 2", len(finished))
	}
	acts := actions(r.sched, "low")
	if len(acts) == 0 || acts[0] != "corun" {
		t.Fatalf("decisions for low = %v, want corun first", acts)
	}
}

func TestNonComplementaryPairQueues(t *testing.T) {
	r := newRig()
	var order []string
	submit := func(spec *kern.Spec) {
		name := spec.Name
		if err := r.sched.Submit(spec, 10, func(vtime.Time, engine.Metrics) {
			order = append(order, name)
		}); err != nil {
			t.Fatal(err)
		}
	}
	submit(memK("m1", 2400))
	submit(memK("m2", 2400)) // H_M × H_M → solo per Table I
	if r.sched.Running() != 1 || r.sched.Queued() != 1 {
		t.Fatalf("running=%d queued=%d, want 1/1", r.sched.Running(), r.sched.Queued())
	}
	r.run(t)
	if len(order) != 2 || order[0] != "m1" || order[1] != "m2" {
		t.Fatalf("completion order = %v, want [m1 m2]", order)
	}
	if acts := actions(r.sched, "m2"); acts[0] != "queue" {
		t.Fatalf("m2 decisions = %v, want queue first", acts)
	}
}

func TestSurvivorGrowsOnPartnerCompletion(t *testing.T) {
	r := newRig()
	// low finishes long before mem; mem should then grow to the full device.
	if err := r.sched.Submit(memK("mem", 4800), 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Submit(lowK("low", 24), 10, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	grew := false
	for _, d := range r.sched.Decisions() {
		if d.Kernel == "mem" && d.Action == "grow" && d.SMHigh == 29 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("survivor never grew; decisions: %+v", r.sched.Decisions())
	}
}

func TestQueueScanFindsComplementaryPartner(t *testing.T) {
	r := newRig()
	// mem runs; mem2 queues (not complementary); low queues behind mem2 but
	// IS complementary — Fig. 4's queue scan must pick it over FIFO order.
	if err := r.sched.Submit(memK("mem", 4800), 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Submit(memK("mem2", 2400), 10, nil); err != nil {
		t.Fatal(err)
	}
	var lowStarted vtime.Time
	if err := r.sched.Submit(lowK("low", 96), 10, func(at vtime.Time, _ engine.Metrics) {
		lowStarted = at
	}); err != nil {
		t.Fatal(err)
	}
	if r.sched.Running() != 2 {
		t.Fatalf("running = %d; the corun slot should have gone to low", r.sched.Running())
	}
	r.run(t)
	_ = lowStarted
	var lowActs = actions(r.sched, "low")
	if lowActs[0] != "dequeue" && lowActs[0] != "corun" {
		t.Fatalf("low decisions = %v, want dequeue/corun", lowActs)
	}
}

func TestSplitSizesFromScalingProfiles(t *testing.T) {
	r := newRig()
	pm, err := r.sched.Prof.Get(memK("mem", 2400))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := r.sched.Prof.Get(lowK("low", 96))
	if err != nil {
		t.Fatal(err)
	}
	// Memory kernel keeps full speed at 10 SMs; the split should hand it
	// roughly the knee and give the rest to the partner.
	split := SplitFor(r.sched.Dev.NumSMs, pm, pl)
	if split < 6 || split > 14 {
		t.Fatalf("split = %d SMs for the memory kernel, want near the knee (6-14)", split)
	}
	// Two compute-bound kernels split evenly.
	pc1, _ := r.sched.Prof.Get(computeK("c1", 2400))
	pc2, _ := r.sched.Prof.Get(computeK("c2", 2400))
	even := SplitFor(r.sched.Dev.NumSMs, pc1, pc2)
	if even < 13 || even > 17 {
		t.Fatalf("compute-compute split = %d, want ≈15", even)
	}
}

// The headline behaviour: corunning a complementary pair beats running them
// consecutively (the ANTT criterion the paper uses to define success).
func TestCorunBeatsConsecutive(t *testing.T) {
	soloTime := func(spec *kern.Spec) float64 {
		r := newRig()
		var d float64
		if err := r.sched.Submit(spec, 10, func(_ vtime.Time, m engine.Metrics) {
			d = m.Duration().Seconds()
		}); err != nil {
			t.Fatal(err)
		}
		r.run(t)
		return d
	}
	tm := soloTime(memK("mem", 4800))
	tl := soloTime(lowK("low", 4800))

	r := newRig()
	end := vtime.Time(0)
	track := func(at vtime.Time, _ engine.Metrics) {
		if at > end {
			end = at
		}
	}
	if err := r.sched.Submit(memK("mem", 4800), 10, track); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.Submit(lowK("low", 4800), 10, track); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	corun := vtime.Duration(end).Seconds()
	if corun >= tm+tl {
		t.Fatalf("corun %.3fms not better than consecutive %.3fms", corun*1e3, (tm+tl)*1e3)
	}
}

func TestSubmitInvalidKernel(t *testing.T) {
	r := newRig()
	bad := memK("bad", 100)
	bad.ComputeEff = 0
	if err := r.sched.Submit(bad, 10, nil); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}
