package harness

import (
	"fmt"

	"slate/internal/engine"
	"slate/workloads"
)

// Fig5Row is one application's task-size sweep.
type Fig5Row struct {
	Code string
	// Seconds[i] is one launch's kernel time at TaskSizes[i].
	Seconds []float64
}

// Fig5Result reproduces Fig. 5: the effect of SLATE_ITERS on kernel time.
type Fig5Result struct {
	TaskSizes []int
	Rows      []Fig5Row
}

// Fig5 sweeps the task size for every application's kernel under Slate.
// Each (application, task size) pair is an independent cell.
func (h *Harness) Fig5() (*Fig5Result, error) {
	res := &Fig5Result{TaskSizes: []int{1, 2, 5, 10, 20, 50}}
	apps := workloads.Apps()
	nts := len(res.TaskSizes)
	res.Rows = make([]Fig5Row, len(apps))
	for i, app := range apps {
		res.Rows[i] = Fig5Row{Code: app.Code, Seconds: make([]float64, nts)}
	}
	shapes := make([]modelShape, nts)
	for i, ts := range res.TaskSizes {
		shapes[i] = modelShape{engine.SlateSched, ts}
	}
	h.calibrate(shapes, apps)
	err := h.forEachCell(len(apps)*nts, func(c int) error {
		ai, ti := c/nts, c%nts
		m, err := h.soloRun(apps[ai].Kernel, engine.LaunchOpts{
			Mode: engine.SlateSched, TaskSize: res.TaskSizes[ti], SMLow: 0, SMHigh: h.Dev.NumSMs - 1,
		})
		if err != nil {
			return err
		}
		res.Rows[ai].Seconds[ti] = m.Duration().Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints kernel time per task size, normalized to task size 10.
func (r *Fig5Result) Render() string {
	head := []string{"App"}
	for _, ts := range r.TaskSizes {
		head = append(head, fmt.Sprintf("t=%d", ts))
	}
	var rows [][]string
	base := indexOf(r.TaskSizes, 10)
	for _, row := range r.Rows {
		cells := []string{row.Code}
		for i := range r.TaskSizes {
			norm := row.Seconds[i]
			if base >= 0 && row.Seconds[base] > 0 {
				norm = row.Seconds[i] / row.Seconds[base]
			}
			cells = append(cells, f2(norm))
		}
		rows = append(rows, cells)
	}
	return "Fig. 5 — Kernel time vs task size (normalized to task=10)\n" + table(head, rows)
}

// CSV emits app,taskSize,seconds rows.
func (r *Fig5Result) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		for i, ts := range r.TaskSizes {
			rows = append(rows, []string{row.Code, fmt.Sprintf("%d", ts), f3(row.Seconds[i] * 1e3)})
		}
	}
	return csvJoin([]string{"app", "task_size", "kernel_ms"}, rows)
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// Fig6Row is one application's solo execution under one scheduler.
type Fig6Row struct {
	Code      string
	Sched     Sched
	AppSec    float64
	KernelSec float64
	HostSec   float64
	CommSec   float64
	InjectSec float64
}

// Fig6Result reproduces Fig. 6: solo application time with CUDA, MPS and
// Slate, broken into kernel / host / communication / injection components.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 runs every application solo under each scheduler. Each
// (application, scheduler) pair is an independent cell.
func (h *Harness) Fig6() (*Fig6Result, error) {
	apps := workloads.Apps()
	scheds := Scheds()
	res := &Fig6Result{Rows: make([]Fig6Row, len(apps)*len(scheds))}
	h.calibrate(sweepShapes, apps)
	err := h.forEachCell(len(res.Rows), func(c int) error {
		app, s := apps[c/len(scheds)], scheds[c%len(scheds)]
		rs, err := h.runApps(s, []*workloads.App{app})
		if err != nil {
			return err
		}
		r := rs[0]
		res.Rows[c] = Fig6Row{
			Code: app.Code, Sched: s,
			AppSec: r.AppSec(), KernelSec: r.KernelSec,
			HostSec: r.HostSec, CommSec: r.CommSec, InjectSec: r.InjectSec,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the per-app breakdown.
func (r *Fig6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Code, row.Sched.String(),
			f3(row.AppSec), f3(row.KernelSec), f3(row.HostSec),
			f3(row.CommSec), f3(row.InjectSec),
		})
	}
	return "Fig. 6 — Solo application execution time breakdown (seconds)\n" + table(
		[]string{"App", "Sched", "App", "Kernel", "Host", "Comm", "Inject"}, rows)
}

// CSV emits the breakdown rows.
func (r *Fig6Result) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Code, row.Sched.String(),
			f3(row.AppSec), f3(row.KernelSec), f3(row.HostSec), f3(row.CommSec), f3(row.InjectSec),
		})
	}
	return csvJoin([]string{"app", "sched", "app_sec", "kernel_sec", "host_sec", "comm_sec", "inject_sec"}, rows)
}

// CommFraction returns Slate's mean communication share of application
// time; the paper measures ~4% (§V-D2).
func (r *Fig6Result) CommFraction() float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if row.Sched == Slate && row.AppSec > 0 {
			sum += row.CommSec / row.AppSec
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// InjectFraction returns Slate's mean injection+compilation share of
// application time; the paper measures ~1.5%.
func (r *Fig6Result) InjectFraction() float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if row.Sched == Slate && row.AppSec > 0 {
			sum += row.InjectSec / row.AppSec
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig7Row is one pairing's normalized execution under the three schedulers.
type Fig7Row struct {
	Pair string
	// MeanSec[s] is the pair's mean application time under scheduler s.
	MeanSec [3]float64
	// Norm[s] is MeanSec normalized to CUDA.
	Norm [3]float64
}

// Fig7Result reproduces Fig. 7: all 15 pairings under CUDA, MPS and Slate.
type Fig7Result struct {
	Rows []Fig7Row
	// SlateVsMPS and SlateVsCUDA are mean throughput improvements
	// (positive = Slate faster).
	SlateVsMPS, SlateVsCUDA float64
	// BestPair and BestGain identify Slate's best pairing vs MPS.
	BestPair string
	BestGain float64
	// WorstPair and WorstGain identify Slate's worst pairing vs MPS.
	WorstPair string
	WorstGain float64
}

// Fig7 runs every pairing under every scheduler. After the calibration pass
// over the pairings' kernels, each (pairing, scheduler) combination is an
// independent cell — 45 on the pool — and the headline aggregates (means,
// best/worst pair) are computed afterwards in pairing order, exactly as the
// serial loop accumulated them.
func (h *Harness) Fig7() (*Fig7Result, error) {
	pairs := workloads.Pairs()
	scheds := Scheds()
	res := &Fig7Result{Rows: make([]Fig7Row, len(pairs))}
	var apps []*workloads.App
	for p, pair := range pairs {
		res.Rows[p].Pair = pair[0].Code + "-" + pair[1].Code
		apps = append(apps, pair[0], pair[1])
	}
	h.calibrate(sweepShapes, apps)
	err := h.forEachCell(len(pairs)*len(scheds), func(c int) error {
		p, s := c/len(scheds), scheds[c%len(scheds)]
		rs, err := h.runApps(s, []*workloads.App{pairs[p][0], pairs[p][1]})
		if err != nil {
			return fmt.Errorf("pair %s under %v: %w", res.Rows[p].Pair, s, err)
		}
		res.Rows[p].MeanSec[s] = meanAppSec(rs)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var sumMPS, sumCUDA float64
	res.BestGain = -1e18
	res.WorstGain = 1e18
	for p := range res.Rows {
		row := &res.Rows[p]
		for _, s := range scheds {
			row.Norm[s] = row.MeanSec[s] / row.MeanSec[CUDA]
		}
		gainMPS := row.MeanSec[MPS]/row.MeanSec[Slate] - 1
		gainCUDA := row.MeanSec[CUDA]/row.MeanSec[Slate] - 1
		sumMPS += gainMPS
		sumCUDA += gainCUDA
		if gainMPS > res.BestGain {
			res.BestGain, res.BestPair = gainMPS, row.Pair
		}
		if gainMPS < res.WorstGain {
			res.WorstGain, res.WorstPair = gainMPS, row.Pair
		}
	}
	n := float64(len(res.Rows))
	res.SlateVsMPS = sumMPS / n
	res.SlateVsCUDA = sumCUDA / n
	return res, nil
}

// Render prints normalized times per pairing and the headline averages.
func (r *Fig7Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pair,
			f3(row.Norm[CUDA]), f3(row.Norm[MPS]), f3(row.Norm[Slate]),
			pct(row.MeanSec[MPS]/row.MeanSec[Slate] - 1),
		})
	}
	out := "Fig. 7 — Normalized application time per pairing (CUDA = 1.000)\n"
	out += table([]string{"Pair", "CUDA", "MPS", "Slate", "Slate vs MPS"}, rows)
	out += fmt.Sprintf("Slate vs MPS:  %s mean (paper: +11%%), best %s %s (paper: RG-GS +35%%), worst %s %s (paper: MM-BS -2%%)\n",
		pct(r.SlateVsMPS), r.BestPair, pct(r.BestGain), r.WorstPair, pct(r.WorstGain))
	out += fmt.Sprintf("Slate vs CUDA: %s mean (paper: +18%%)\n", pct(r.SlateVsCUDA))
	return out
}

// CSV emits pair,sched,normalized rows.
func (r *Fig7Result) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		for _, s := range Scheds() {
			rows = append(rows, []string{row.Pair, s.String(), f3(row.MeanSec[s]), f3(row.Norm[s])})
		}
	}
	return csvJoin([]string{"pair", "sched", "mean_sec", "norm_vs_cuda"}, rows)
}
