package harness

import (
	"fmt"

	"slate/workloads"
)

// HeaviestPairIndex returns the index (into workloads.Pairs()) of the Fig. 7
// pairing with the most simulation work — the cell the benchmark's
// harness.cell_cold_s / cell_warm_s probes time and the sharded determinism
// test renders both ways. "Work" is estimated statically from the kernel specs: event count
// scales with the launch count of the ~30s loop, which is the loop target
// over the roofline-estimated solo time. The estimate is a pure function of
// the specs and the device, so every invocation picks the same cell.
func (h *Harness) HeaviestPairIndex() int {
	est := func(a *workloads.App) float64 {
		k := a.Kernel
		computeSec := k.TotalFLOPs() / h.Dev.PeakFLOPS()
		memSec := k.TotalL2Bytes() / h.Dev.DRAM.EffectivePeak()
		solo := computeSec
		if memSec > solo {
			solo = memSec
		}
		if solo <= 0 {
			return 1
		}
		return h.Loop / solo // ≈ launches in the loop
	}
	best, bestWork := 0, -1.0
	for p, pair := range workloads.Pairs() {
		if w := est(pair[0]) + est(pair[1]); w > bestWork {
			best, bestWork = p, w
		}
	}
	return best
}

// SimBenchCell runs one Fig. 7 pairing end to end — the calibration pass for
// the pair, solo calibration, then the pair under all three schedulers — and
// returns the rendered row plus CSV. With SimWorkers > 1 the three scheduler
// co-runs execute as shards of a ShardedClock and the engines fan their
// per-event hot path; the rendered bytes are identical to the serial path's
// at every worker count.
func (h *Harness) SimBenchCell(p int) (string, error) {
	pairs := workloads.Pairs()
	if p < 0 || p >= len(pairs) {
		return "", fmt.Errorf("harness: pair index %d out of range [0,%d)", p, len(pairs))
	}
	pair := pairs[p]
	name := pair[0].Code + "-" + pair[1].Code
	h.calibrate(sweepShapes, pair[:])
	jobs, err := h.JobsFor(pair[:])
	if err != nil {
		return "", err
	}
	all, err := h.runJobsAllScheds(jobs)
	if err != nil {
		return "", fmt.Errorf("pair %s: %w", name, err)
	}
	var mean [3]float64
	for i, s := range Scheds() {
		mean[s] = meanAppSec(all[i])
	}
	out := fmt.Sprintf("heaviest cell — pair %s (Fig. 7 row)\n", name)
	var rows [][]string
	for _, s := range Scheds() {
		rows = append(rows, []string{
			s.String(), f3(mean[s]), f3(mean[s] / mean[CUDA]),
		})
	}
	out += table([]string{"Sched", "MeanSec", "NormVsCUDA"}, rows)
	out += fmt.Sprintf("Slate vs MPS: %s, Slate vs CUDA: %s\n",
		pct(mean[MPS]/mean[Slate]-1), pct(mean[CUDA]/mean[Slate]-1))
	return out, nil
}
