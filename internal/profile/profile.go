// Package profile implements Slate's kernel profiler (§IV-B): kernels are
// profiled at their first run and the results cached in a table the
// scheduler consults online. Each profile records the nvprof-style solo
// counters of Table II plus a second measurement on a restricted SM range —
// Slate's own SM-binding makes that measurement possible — from which the
// scheduler derives the kernel's SM-scaling curve for partition sizing.
package profile

import (
	"fmt"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/memo"
	"slate/internal/policy"
	"slate/internal/vtime"
)

// ScalingSMs is the restricted SM count of the second profiling run.
const ScalingSMs = 10

// Profile is one kernel's cached measurement.
type Profile struct {
	Kernel string `json:"kernel"`
	// Fingerprint is the content identity (kern.Spec.Fingerprint) of the
	// measured spec — the cache key. Persisted so a loaded table keeps
	// serving renamed instances of the same kernel.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Device and ModelVersion stamp the measurement context; LoadFile
	// discards entries from a different device or model generation rather
	// than serving stale numbers.
	Device       string `json:"device,omitempty"`
	ModelVersion int    `json:"model_version,omitempty"`
	// Solo full-device counters (the Table II columns).
	GFLOPS   float64 `json:"gflops"`
	AccessBW float64 `json:"access_gbs"`
	DRAMBW   float64 `json:"dram_gbs"`
	StallMem float64 `json:"stall_mem"`
	IPC      float64 `json:"ipc"`
	SoloSec  float64 `json:"solo_sec"`
	// Speed10 is the kernel's relative speed on ScalingSMs SMs (1.0 = full
	// solo speed despite the restriction).
	Speed10 float64 `json:"speed10"`
	// Class is the policy classification derived from GFLOPS/AccessBW.
	Class policy.Class `json:"class"`
}

// SpeedAt estimates the kernel's relative speed on s SMs by linear
// interpolation through the measured (ScalingSMs, Speed10) point, capped at
// full speed. The estimate is what the partition optimizer minimizes over.
func (p *Profile) SpeedAt(s int) float64 {
	if s <= 0 {
		return 0
	}
	v := p.Speed10 * float64(s) / ScalingSMs
	if v > 1 {
		return 1
	}
	return v
}

// Profiler measures kernels on a scratch simulation and caches results by
// content fingerprint, so renamed instances of one kernel share a single
// measurement. It is safe for concurrent use: distinct kernels measure in
// parallel while concurrent requests for one kernel single-flight behind
// the first measurer.
type Profiler struct {
	Dev   *device.Device
	Model engine.PerfModel

	table memo.Map[string, *Profile] // fingerprint → profile
}

// New constructs a profiler for the device using the given performance
// model (typically the shared TraceModel).
func New(dev *device.Device, model engine.PerfModel) *Profiler {
	return &Profiler{
		Dev:   dev,
		Model: model,
	}
}

// Get returns the cached profile for spec, measuring it on first request —
// the paper's "profiles kernels at their first time run". A failed
// measurement is not cached: the next request measures again.
func (p *Profiler) Get(spec *kern.Spec) (*Profile, error) {
	fp := spec.Fingerprint()
	return p.table.Get(fp, func() (*Profile, error) {
		pr, err := p.measure(spec)
		if pr != nil {
			pr.Fingerprint = fp
			pr.Device = p.Dev.Name
			pr.ModelVersion = engine.ModelVersion
		}
		return pr, err
	})
}

// Len returns the number of completed cached profiles.
func (p *Profiler) Len() int { return p.table.Len() }

func (p *Profiler) measure(spec *kern.Spec) (*Profile, error) {
	solo, err := p.run(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		return nil, err
	}
	// The scaling pair is measured entirely under Slate scheduling at the
	// default task size, so the two runs share every Slate-specific cost
	// (injected instructions, queue atomics, task grouping) and their ratio
	// isolates SM scaling. Comparing against the hardware-scheduled solo
	// would fold Slate's locality gains into the curve.
	slateSolo, err := p.run(spec, engine.LaunchOpts{
		Mode: engine.SlateSched, SMLow: 0, SMHigh: p.Dev.NumSMs - 1, TaskSize: engine.DefaultTaskSize,
	})
	if err != nil {
		return nil, err
	}
	restricted, err := p.run(spec, engine.LaunchOpts{
		Mode: engine.SlateSched, SMLow: 0, SMHigh: ScalingSMs - 1, TaskSize: engine.DefaultTaskSize,
	})
	if err != nil {
		return nil, err
	}
	soloSec := solo.Duration().Seconds()
	resSec := restricted.Duration().Seconds()
	speed10 := 0.0
	if resSec > 0 {
		speed10 = slateSolo.Duration().Seconds() / resSec
	}
	pr := &Profile{
		Kernel:   spec.Name,
		GFLOPS:   solo.GFLOPS(),
		AccessBW: solo.AccessBW(),
		DRAMBW:   solo.DRAMBW(),
		StallMem: solo.StallMemThrottle,
		IPC:      solo.IPC(p.Dev.SM.ClockHz),
		SoloSec:  soloSec,
		Speed10:  speed10,
	}
	pr.Class = policy.Classify(pr.GFLOPS, pr.AccessBW)
	return pr, nil
}

// run executes one launch on a private scratch clock and engine.
func (p *Profiler) run(spec *kern.Spec, opts engine.LaunchOpts) (engine.Metrics, error) {
	clk := vtime.NewClock()
	e := engine.New(p.Dev, clk, p.Model)
	h, err := e.Launch(spec, opts)
	if err != nil {
		return engine.Metrics{}, err
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return engine.Metrics{}, fmt.Errorf("profile: simulation of %q did not converge", spec.Name)
	}
	if !h.Done() {
		return engine.Metrics{}, fmt.Errorf("profile: kernel %q did not complete", spec.Name)
	}
	return h.Metrics(), nil
}
