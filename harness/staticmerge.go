package harness

import (
	"fmt"

	"slate/internal/engine"
	"slate/internal/sched"
	"slate/internal/vtime"
	"slate/workloads"
)

// StaticMergeRow compares one kernel pair under three co-execution
// strategies at kernel granularity.
type StaticMergeRow struct {
	Pair string
	// SerialSec runs the kernels back to back (the no-sharing baseline).
	SerialSec float64
	// MergedSec is the related-work static merge (KernelMerge, SM-centric
	// transformations): both kernels fused at compile time onto a fixed
	// even partition, no resizing — when one half finishes, its SMs idle.
	MergedSec float64
	// SlateSec uses Slate's measured-scaling split and grows the survivor
	// the moment its partner completes.
	SlateSec float64
}

// StaticMergeResult is the related-work comparison of DESIGN.md: what the
// runtime approach buys over compile-time kernel merging.
type StaticMergeResult struct {
	Rows []StaticMergeRow
}

// StaticMerge evaluates the corunnable pairs at kernel granularity. Each
// pair is an independent cell; profiles come from the harness's shared
// content-addressed profiler.
func (h *Harness) StaticMerge() (*StaticMergeResult, error) {
	pairs := [][2]string{{"BS", "RG"}, {"GS", "RG"}, {"MM", "RG"}, {"TR", "RG"}}
	res := &StaticMergeResult{Rows: make([]StaticMergeRow, len(pairs))}
	apps := make([][]*workloads.App, len(pairs))
	for p, pc := range pairs {
		pair, err := appsByCode(pc[0], pc[1])
		if err != nil {
			return nil, err
		}
		apps[p] = pair
	}
	h.calibrate(sweepShapes, apps...)
	err := h.forEachCell(len(pairs), func(p int) error {
		a, b := apps[p][0], apps[p][1]
		row := StaticMergeRow{Pair: a.Code + "-" + b.Code}

		soloA, err := h.soloKernelSec(a.Kernel)
		if err != nil {
			return err
		}
		soloB, err := h.soloKernelSec(b.Kernel)
		if err != nil {
			return err
		}
		row.SerialSec = soloA + soloB

		// Static merge: fixed even halves, no resizing.
		half := h.Dev.NumSMs / 2
		merged, err := h.corunMakespan(a, b, half, false)
		if err != nil {
			return fmt.Errorf("static merge %s: %w", row.Pair, err)
		}
		row.MergedSec = merged

		// Slate: measured-scaling split + grow on completion.
		pa, err := h.Prof.Get(a.Kernel)
		if err != nil {
			return err
		}
		pb, err := h.Prof.Get(b.Kernel)
		if err != nil {
			return err
		}
		split := sched.SplitFor(h.Dev.NumSMs, pa, pb)
		slate, err := h.corunMakespan(a, b, split, true)
		if err != nil {
			return fmt.Errorf("slate corun %s: %w", row.Pair, err)
		}
		row.SlateSec = slate
		res.Rows[p] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// corunMakespan launches a.Kernel on [0,split-1] and b.Kernel on
// [split,N-1] under Slate scheduling and returns the makespan. With grow
// set, the survivor is resized to the whole device when its partner
// completes.
func (h *Harness) corunMakespan(a, b *workloads.App, split int, grow bool) (float64, error) {
	clk := vtime.NewClock()
	e := engine.New(h.Dev, clk, h.Model)
	ha, err := e.Launch(a.Kernel, engine.LaunchOpts{
		Mode: engine.SlateSched, TaskSize: engine.DefaultTaskSize, SMLow: 0, SMHigh: split - 1,
	})
	if err != nil {
		return 0, err
	}
	hb, err := e.Launch(b.Kernel, engine.LaunchOpts{
		Mode: engine.SlateSched, TaskSize: engine.DefaultTaskSize, SMLow: split, SMHigh: h.Dev.NumSMs - 1,
	})
	if err != nil {
		return 0, err
	}
	if grow {
		e.OnComplete(ha, func(vtime.Time) {
			if !hb.Done() {
				_ = e.Resize(hb, 0, h.Dev.NumSMs-1)
			}
		})
		e.OnComplete(hb, func(vtime.Time) {
			if !ha.Done() {
				_ = e.Resize(ha, 0, h.Dev.NumSMs-1)
			}
		})
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return 0, fmt.Errorf("did not converge")
	}
	end := ha.Metrics().Completed
	if hb.Metrics().Completed > end {
		end = hb.Metrics().Completed
	}
	return vtime.Duration(end).Seconds(), nil
}

// Render prints the comparison with speedups over serial.
func (r *StaticMergeResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pair,
			f3(row.SerialSec * 1e3),
			f3(row.MergedSec * 1e3), pct(row.SerialSec/row.MergedSec - 1),
			f3(row.SlateSec * 1e3), pct(row.SerialSec/row.SlateSec - 1),
		})
	}
	return "Related-work comparison — serial vs static merge vs Slate (one kernel each, ms)\n" +
		table([]string{"Pair", "Serial", "StaticMerge", "vs serial", "Slate", "vs serial"}, rows)
}
