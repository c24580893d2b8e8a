package harness

import (
	"fmt"

	"slate/internal/cudart"
	"slate/internal/daemon"
	"slate/internal/mps"
	"slate/internal/run"
	"slate/internal/sched"
	"slate/internal/vtime"
	"slate/workloads"
)

// Sched identifies one of the three evaluated schedulers.
type Sched int

// The evaluated schedulers.
const (
	CUDA Sched = iota
	MPS
	Slate
)

func (s Sched) String() string {
	switch s {
	case CUDA:
		return "CUDA"
	case MPS:
		return "MPS"
	case Slate:
		return "Slate"
	default:
		return fmt.Sprintf("Sched(%d)", int(s))
	}
}

// Scheds lists the three schedulers in the paper's reporting order.
func Scheds() []Sched { return []Sched{CUDA, MPS, Slate} }

// runApps executes the given applications concurrently under one scheduler
// on a fresh clock and returns per-app results (in input order).
func (h *Harness) runApps(s Sched, apps []*workloads.App) ([]run.Result, error) {
	jobs, err := h.JobsFor(apps)
	if err != nil {
		return nil, err
	}
	return h.runJobs(s, jobs)
}

// appsByCode resolves application codes into fresh instances.
func appsByCode(codes ...string) ([]*workloads.App, error) {
	apps := make([]*workloads.App, len(codes))
	for i, code := range codes {
		app, err := workloads.ByCode(code)
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	return apps, nil
}

// JobsFor sizes one job per application to the harness's loop (§V-A3's
// ~30 s methodology at h.Loop) from its cached solo time; it is the one
// place a job list is made.
func (h *Harness) JobsFor(apps []*workloads.App) ([]run.Job, error) {
	jobs := make([]run.Job, len(apps))
	for i, app := range apps {
		solo, err := h.soloKernelSec(app.Kernel)
		if err != nil {
			return nil, err
		}
		jobs[i] = run.Job{App: app, Reps: run.Reps30s(solo, h.Loop)}
	}
	return jobs, nil
}

// RunJobs executes prepared jobs concurrently under one scheduler on a
// fresh clock and returns per-app results in job order. Under Slate it also
// returns the scheduler's decisions; under CUDA and MPS they are nil. Every
// simulated CUDA, MPS or Slate run outside this package goes through it.
func (h *Harness) RunJobs(s Sched, jobs []run.Job) ([]run.Result, []sched.Decision, error) {
	if s == Slate {
		rs, sc, err := h.runSlate(jobs, nil)
		if err != nil {
			return nil, nil, err
		}
		return rs, sc.Decisions(), nil
	}
	rs, err := h.runJobs(s, jobs)
	return rs, nil, err
}

// runJobs is RunJobs for the cells that read only the results.
func (h *Harness) runJobs(s Sched, jobs []run.Job) ([]run.Result, error) {
	clk := vtime.NewClock()
	backend, err := h.newBackend(s, clk)
	if err != nil {
		return nil, err
	}
	return run.NewDriver(clk, backend).Run(jobs)
}

// mutator adjusts a simulated Slate daemon before its run.
type mutator func(*daemon.SimBackend)

// runSlate is the one runner of a Slate cell: it runs jobs under a fresh
// Slate daemon, adjusted by mut when mut is not nil, and returns the results
// and the scheduler, whose decision log a cell that reads it assembles.
func (h *Harness) runSlate(jobs []run.Job, mut mutator) ([]run.Result, *sched.Scheduler, error) {
	clk := vtime.NewClock()
	sim := h.newSlateSim(clk)
	if mut != nil {
		mut(sim)
	}
	rs, err := run.NewDriver(clk, sim).Run(jobs)
	if err != nil {
		return nil, nil, err
	}
	return rs, sim.Sched, nil
}

// newBackend builds one scheduler's backend on the given clock, plumbing the
// intra-simulation worker count into its engine.
func (h *Harness) newBackend(s Sched, clk *vtime.Clock) (run.Backend, error) {
	switch s {
	case CUDA:
		b := cudart.New(h.Dev, clk, h.Model)
		b.Eng.Workers = h.simWorkers
		return b, nil
	case MPS:
		b := mps.New(h.Dev, clk, h.Model)
		b.Eng.Workers = h.simWorkers
		return b, nil
	case Slate:
		return h.newSlateSim(clk), nil
	default:
		return nil, fmt.Errorf("harness: unknown scheduler %v", s)
	}
}

// newSlateSim builds a fresh Slate daemon on the given clock, sharing the
// harness's profiler so kernels are profiled once across all cells.
func (h *Harness) newSlateSim(clk *vtime.Clock) *daemon.SimBackend {
	sim := daemon.NewSim(h.Dev, clk, h.Model, h.Prof)
	sim.Eng.Workers = h.simWorkers
	// One-time injection/compilation costs are defined relative to the
	// paper's ~30 s loop methodology; scale them with the configured
	// loop length so shortened runs keep the measured overhead
	// fractions (~1.5% of application time). This is the one place the
	// scaling happens: every simulated Slate run is built here.
	scale := h.Loop / 30.0
	sim.Costs.InjectSeconds *= scale
	sim.Costs.CompileSeconds *= scale
	return sim
}

// runJobsAllScheds executes the same jobs under every scheduler. The three
// simulations are mutually independent — distinct clocks, engines, and
// backends — so with SimWorkers > 1 they run as shards of one
// vtime.ShardedClock under conservative windows; serially otherwise. The
// per-scheduler results are byte-identical between the two paths: each
// shard's event sequence is exactly the serial run's (DESIGN.md §15).
func (h *Harness) runJobsAllScheds(jobs []run.Job) ([][]run.Result, error) {
	scheds := Scheds()
	out := make([][]run.Result, len(scheds))
	if h.simWorkers <= 1 {
		for i, s := range scheds {
			rs, err := h.runJobs(s, jobs)
			if err != nil {
				return nil, err
			}
			out[i] = rs
		}
		return out, nil
	}
	sc := vtime.NewSharded(len(scheds), simWindow)
	sc.Workers = h.simWorkers
	collects := make([]func() ([]run.Result, error), len(scheds))
	for i, s := range scheds {
		backend, err := h.newBackend(s, sc.Shard(i))
		if err != nil {
			return nil, err
		}
		collects[i] = run.NewDriver(sc.Shard(i), backend).Start(jobs)
	}
	limit := 50_000_000 * len(scheds)
	if n := sc.Run(limit); n >= limit {
		return nil, fmt.Errorf("harness: sharded scheduler runs did not converge")
	}
	for i, collect := range collects {
		rs, err := collect()
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

// meanAppSec averages the applications' execution times.
func meanAppSec(rs []run.Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += r.AppSec()
	}
	return sum / float64(len(rs))
}
