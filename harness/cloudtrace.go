package harness

import (
	"fmt"
	"math/rand"
	"sort"

	"slate/internal/policy"
	"slate/workloads"
)

// CloudTraceConfig parameterizes the randomized arrival experiment.
type CloudTraceConfig struct {
	// Jobs is the number of applications in the trace.
	Jobs int
	// MeanInterArrivalSec spaces exponential arrivals.
	MeanInterArrivalSec float64
	// Seed drives the deterministic trace generation.
	Seed int64
}

// CloudTraceResult evaluates the schedulers on a multi-tenant arrival trace
// — the GPU-cloud setting of the paper's related work (Mystic): many
// applications arriving over time, measured by the standard multiprogram
// metrics.
type CloudTraceResult struct {
	Config CloudTraceConfig
	// Mix lists the sampled application codes in arrival order.
	Mix []string
	// ANTT per scheduler: mean of turnaround/solo (lower is better).
	ANTT [3]float64
	// STP per scheduler: sum of solo/turnaround, the system-throughput
	// metric (higher is better; max = number of jobs).
	STP [3]float64
	// MakespanSec per scheduler.
	MakespanSec [3]float64
	// P95NTT is the 95th-percentile normalized turnaround per scheduler —
	// the tail-latency view a cloud operator cares about.
	P95NTT [3]float64
}

// CloudTrace samples a deterministic random trace and runs it under CUDA,
// MPS, and Slate.
func (h *Harness) CloudTrace(cfg CloudTraceConfig) (*CloudTraceResult, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 8
	}
	if cfg.MeanInterArrivalSec <= 0 {
		cfg.MeanInterArrivalSec = h.Loop / 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	codes := []string{"BS", "GS", "MM", "RG", "TR"}

	res := &CloudTraceResult{Config: cfg}
	type jobSpec struct {
		code  string
		delay float64
	}
	var specs []jobSpec
	t := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		code := codes[rng.Intn(len(codes))]
		specs = append(specs, jobSpec{code: code, delay: t})
		res.Mix = append(res.Mix, code)
		t += rng.ExpFloat64() * cfg.MeanInterArrivalSec
	}

	// Solo app times (exclusive machine) for normalization: measured once
	// per code under CUDA with a single job — one cell per code.
	soloAppByCode := make([]float64, len(codes))
	err := h.forEachCell(len(codes), func(ci int) error {
		app, err := workloads.ByCode(codes[ci])
		if err != nil {
			return err
		}
		rs, err := h.runApps(CUDA, []*workloads.App{app})
		if err != nil {
			return err
		}
		soloAppByCode[ci] = rs[0].AppSec()
		return nil
	})
	if err != nil {
		return nil, err
	}
	soloApp := map[string]float64{}
	for ci, code := range codes {
		soloApp[code] = soloAppByCode[ci]
	}

	// The solo cells above each built their own code's hardware-order entry;
	// the Slate cell below would build the sampled codes' Slate-order entries
	// one after another, so the calibration pass builds them side by side.
	mix, err := appsByCode(res.Mix...)
	if err != nil {
		return nil, err
	}
	h.calibrate(sweepShapes, mix)

	// One cell per scheduler; each builds its own fresh app instances and
	// jobs, so nothing mutable crosses cells.
	scheds := Scheds()
	err = h.forEachCell(len(scheds), func(si int) error {
		s := scheds[si]
		// Distinct instance names per job so repeated codes behave as
		// separate clients; the content-addressed caches keep sharing their
		// locality and solo measurements.
		apps := make([]*workloads.App, len(specs))
		for i, js := range specs {
			app, err := workloads.ByCode(js.code)
			if err != nil {
				return err
			}
			app.Kernel.Name = fmt.Sprintf("%s@%d", app.Kernel.Name, i)
			apps[i] = app
		}
		jobs, err := h.JobsFor(apps)
		if err != nil {
			return err
		}
		for i := range jobs {
			jobs[i].StartDelaySec = specs[i].delay
		}
		rs, err := h.runJobs(s, jobs)
		if err != nil {
			return fmt.Errorf("cloud trace under %v: %w", s, err)
		}
		turns, solos := make([]float64, len(rs)), make([]float64, len(rs))
		var stp, makespan float64
		for i, r := range rs {
			turns[i], solos[i] = r.AppSec(), soloApp[specs[i].code]
			if solos[i] <= 0 || turns[i] <= 0 {
				return fmt.Errorf("cloud trace: degenerate times for %s", r.Code)
			}
			stp += solos[i] / turns[i]
			if end := float64(r.End) / 1e9; end > makespan {
				makespan = end
			}
		}
		ntts := make([]float64, len(rs))
		for i := range ntts {
			ntts[i] = turns[i] / solos[i]
		}
		res.ANTT[s] = policy.ANTT(turns, solos)
		res.STP[s] = stp
		res.MakespanSec[s] = makespan
		sort.Float64s(ntts)
		res.P95NTT[s] = ntts[(len(ntts)*95+99)/100-1]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the trace metrics.
func (r *CloudTraceResult) Render() string {
	mix := append([]string(nil), r.Mix...)
	sort.Strings(mix)
	var rows [][]string
	for _, s := range []Sched{CUDA, MPS, Slate} {
		rows = append(rows, []string{
			s.String(), f3(r.ANTT[s]), f3(r.P95NTT[s]), f3(r.STP[s]), f3(r.MakespanSec[s]),
		})
	}
	out := fmt.Sprintf("Cloud trace — %d jobs (%v), exponential arrivals (mean %.2fs, seed %d)\n",
		r.Config.Jobs, r.Mix, r.Config.MeanInterArrivalSec, r.Config.Seed)
	out += table([]string{"Sched", "ANTT (↓)", "P95 NTT (↓)", "STP (↑)", "Makespan s"}, rows)
	return out
}
