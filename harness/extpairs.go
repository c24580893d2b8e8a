package harness

import (
	"fmt"

	"slate/workloads"
)

// ExtPairRow is one extended pairing's result.
type ExtPairRow struct {
	Pair    string
	Norm    [3]float64 // normalized to CUDA
	Decided string     // "corun" or "solo" under Slate
}

// ExtendedPairsResult evaluates pairings drawn from the extended workload
// suite (Hotspot, Pathfinder, KMeans) — including the M_C policy row the
// paper's five applications never exercise (KM coruns with H_M partners
// like TR, refuses M_M partners like BS).
type ExtendedPairsResult struct {
	Rows []ExtPairRow
}

// extendedPairs are chosen to cover fresh Table-I cells.
var extendedPairs = [][2]string{
	{"KM", "RG"}, // M_C × L_C → corun
	{"KM", "TR"}, // M_C × H_M → corun (new cell)
	{"KM", "KM"}, // M_C × M_C → corun (new cell)
	{"KM", "BS"}, // M_C × M_M → solo (new cell)
	{"HS", "RG"}, // M_M × L_C → corun
	{"HS", "TR"}, // M_M × H_M → solo
	{"PF", "HS"}, // L_C × M_M → corun
	{"PF", "PF"}, // L_C × L_C → corun
}

// ExtendedPairs runs the extended pairings under the three schedulers.
// Each pairing is an independent cell; its Slate run also gives the
// decision.
func (h *Harness) ExtendedPairs() (*ExtendedPairsResult, error) {
	res := &ExtendedPairsResult{Rows: make([]ExtPairRow, len(extendedPairs))}
	pairs := make([][]*workloads.App, len(extendedPairs))
	for p, pc := range extendedPairs {
		pair, err := appsByCode(pc[0], pc[1])
		if err != nil {
			return nil, err
		}
		if pc[0] == pc[1] {
			pair[1].Kernel.Name += "@2"
		}
		pairs[p] = pair
	}
	h.calibrate(sweepShapes, pairs...)
	err := h.forEachCell(len(extendedPairs), func(p int) error {
		pc := extendedPairs[p]
		row := ExtPairRow{Pair: pc[0] + "-" + pc[1]}
		var mean [3]float64
		for _, s := range []Sched{CUDA, MPS} {
			rs, err := h.runApps(s, pairs[p])
			if err != nil {
				return fmt.Errorf("extended pair %s under %v: %w", row.Pair, s, err)
			}
			mean[s] = meanAppSec(rs)
		}
		// The Slate run gives both its times and its decision.
		jobs, err := h.jobsFor(pairs[p])
		if err != nil {
			return err
		}
		rs, sc, err := h.runSlate(jobs, nil)
		if err != nil {
			return fmt.Errorf("extended pair %s under %v: %w", row.Pair, Slate, err)
		}
		mean[Slate] = meanAppSec(rs)
		for _, s := range Scheds() {
			row.Norm[s] = mean[s] / mean[CUDA]
		}
		row.Decided = "solo"
		for _, d := range sc.Decisions() {
			if d.Action == "corun" {
				row.Decided = "corun"
				break
			}
		}
		res.Rows[p] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the extended pairings.
func (r *ExtendedPairsResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pair, row.Decided,
			f3(row.Norm[CUDA]), f3(row.Norm[MPS]), f3(row.Norm[Slate]),
			pct(row.Norm[MPS]/row.Norm[Slate] - 1),
		})
	}
	return "Extended pairings — Hotspot/Pathfinder/KMeans (normalized to CUDA)\n" +
		table([]string{"Pair", "Slate decision", "CUDA", "MPS", "Slate", "Slate vs MPS"}, rows)
}
