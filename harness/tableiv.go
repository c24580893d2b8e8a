package harness

import (
	"fmt"

	"slate/workloads"
)

// TableIVResult reproduces Table IV: device-level behaviour of the BS-RG
// pair under MPS and under Slate.
type TableIVResult struct {
	// L2ThroughputGBs is aggregate accessed-byte throughput over the pair's
	// makespan.
	L2ThroughputGBs [2]float64 // [0]=MPS, [1]=Slate
	// LoadStoreM is executed load/store instructions in millions
	// (approximated as one 128-byte coalesced transaction per instruction).
	LoadStoreM [2]float64
	// IPC is aggregate instructions per device cycle per SM.
	IPC [2]float64
	// ThroughputGain is Slate's mean-app-time improvement over MPS.
	ThroughputGain float64
}

// TableIV runs the BS-RG pairing under MPS and Slate and aggregates the
// pair's device counters.
func (h *Harness) TableIV() (*TableIVResult, error) {
	pair, err := appsByCode("BS", "RG")
	if err != nil {
		return nil, err
	}
	h.calibrate(sweepShapes, pair)
	res := &TableIVResult{}
	var mean [2]float64
	scheds := []Sched{MPS, Slate}
	err = h.forEachCell(len(scheds), func(i int) error {
		s := scheds[i]
		rs, err := h.runApps(s, pair)
		if err != nil {
			return fmt.Errorf("BS-RG under %v: %w", s, err)
		}
		makespan := 0.0
		var l2, instr float64
		for _, r := range rs {
			if t := r.End.Sub(r.Start).Seconds(); t > makespan {
				makespan = t
			}
			l2 += r.L2Bytes
			instr += r.Instr
		}
		if makespan > 0 {
			res.L2ThroughputGBs[i] = l2 / makespan / 1e9
			res.IPC[i] = instr / (makespan * float64(h.Dev.NumSMs) * h.Dev.SM.ClockHz)
		}
		res.LoadStoreM[i] = l2 / 128 / 1e6
		mean[i] = meanAppSec(rs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if mean[1] > 0 {
		res.ThroughputGain = mean[0]/mean[1] - 1
	}
	return res, nil
}

// Render prints the MPS/Slate/Δ% rows of Table IV.
func (r *TableIVResult) Render() string {
	d := func(m, s float64) string {
		if m == 0 {
			return "-"
		}
		return pct(s/m - 1)
	}
	rows := [][]string{
		{"Global/L2 Throughput (GB/s)", f1(r.L2ThroughputGBs[0]), f1(r.L2ThroughputGBs[1]),
			d(r.L2ThroughputGBs[0], r.L2ThroughputGBs[1]), "+3.84%"},
		{"Load/Store Executed (million)", f1(r.LoadStoreM[0]), f1(r.LoadStoreM[1]),
			d(r.LoadStoreM[0], r.LoadStoreM[1]), "-9%"},
		{"Instructions Per Cycle", f2(r.IPC[0]), f2(r.IPC[1]),
			d(r.IPC[0], r.IPC[1]), "+71.28%"},
		{"Throughput Gain from Slate", "", pct(r.ThroughputGain), "", "30.55%"},
	}
	return "Table IV — BS-RG pair, MPS vs Slate\n" + table(
		[]string{"Metric", "MPS", "Slate", "Δ%", "(paper)"}, rows)
}

// TableVRow is one overhead-inventory line with its measured magnitude.
type TableVRow struct {
	Scope, Operation, Measured string
}

// TableVResult reproduces Table V: the Slate-introduced operations, with
// measured magnitudes attached.
type TableVResult struct {
	Rows []TableVRow
}

// TableV builds the overhead inventory from a Fig. 6 run plus the engine's
// counters.
func (h *Harness) TableV() (*TableVResult, error) {
	fig6, err := h.Fig6()
	if err != nil {
		return nil, err
	}
	// Atomics per launch for GS at the default task size: blocks/10.
	gs := workloads.GS()
	atomicsPerLaunch := gs.NumBlocks() / 10

	res := &TableVResult{Rows: []TableVRow{
		{"Inside kernel exec", "Exec of injected instructions",
			fmt.Sprintf("+%.0f%% instructions", h.Dev.InjectedInstrOverhead*100)},
		{"Inside kernel exec", "Atomic ops on the task queue",
			fmt.Sprintf("%d pulls per GS launch (1 per task)", atomicsPerLaunch)},
		{"Outside kernel exec", "Dynamic code injection & compilation",
			fmt.Sprintf("%.1f%% of application time (paper: 1.5%%)", fig6.InjectFraction()*100)},
		{"Outside kernel exec", "Client-daemon communication",
			fmt.Sprintf("%.1f%% of application time (paper: 4%%)", fig6.CommFraction()*100)},
		{"Offline", "Kernel profiling to build lookup table",
			"2 runs per kernel (solo + 10-SM scaling), cached"},
	}}
	return res, nil
}

// Render prints the inventory.
func (r *TableVResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Scope, row.Operation, row.Measured})
	}
	return "Table V — Slate-introduced operations and their scope\n" + table(
		[]string{"Scope", "Operation", "Measured"}, rows)
}

// EnsureResults is a tiny helper for callers that want all results or an
// error at once.
func EnsureResults(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
