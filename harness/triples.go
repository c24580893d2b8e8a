package harness

import (
	"fmt"
	"strings"

	"slate/internal/run"
	"slate/internal/vtime"
	"slate/workloads"
)

// TripleRow is one three-application workload under the three schedulers.
type TripleRow struct {
	Triple string
	// MeanSec[s] is the mean application time under scheduler s.
	MeanSec [3]float64
	// Coruns3 counts three-way corun admissions under Slate.
	Coruns3 int
}

// TriplesResult is the N-way extension experiment: the paper evaluates
// pairs; with MaxConcurrent raised to 3, Slate's admission generalizes and
// complementary triples share the device three ways.
type TriplesResult struct {
	Rows []TripleRow
	// SlateVsMPS is the mean gain across triples.
	SlateVsMPS float64
}

// Triples runs three-application mixes under CUDA, MPS, and 3-way Slate.
func (h *Harness) Triples() (*TriplesResult, error) {
	mixes := [][3]string{
		{"BS", "RG", "RG"}, // bandwidth kernel + two low-intensity partners
		{"GS", "RG", "BS"}, // the two flagship corun partners together
		{"MM", "RG", "TR"}, // compute + low + bandwidth
	}
	// Each mix is an independent cell; the cross-mix mean is a post-pass.
	res := &TriplesResult{Rows: make([]TripleRow, len(mixes))}
	mixApps := make([][]*workloads.App, len(mixes))
	for mi, mix := range mixes {
		apps, err := appsByCode(mix[:]...)
		if err != nil {
			return nil, err
		}
		// Distinct kernel names for self-repeats so the scheduler and engine
		// treat them as separate clients' kernels; the content-addressed
		// caches still share their locality and solo measurements.
		for i := 1; i < len(apps); i++ {
			apps[i].Kernel.Name = fmt.Sprintf("%s#%d", apps[i].Kernel.Name, i)
		}
		mixApps[mi] = apps
	}
	h.calibrate(sweepShapes, mixApps...)
	err := h.forEachCell(len(mixes), func(mi int) error {
		apps := mixApps[mi]
		names := strings.Join(mixes[mi][:], "-")
		row := TripleRow{Triple: names}

		jobs := make([]run.Job, len(apps))
		for i, app := range apps {
			solo, err := h.soloKernelSec(app.Kernel)
			if err != nil {
				return err
			}
			jobs[i] = run.Job{App: app, Reps: run.Reps30s(solo, h.Loop)}
		}

		for _, s := range []Sched{CUDA, MPS} {
			rs, err := h.runApps(s, apps)
			if err != nil {
				return fmt.Errorf("triple %s under %v: %w", names, s, err)
			}
			row.MeanSec[s] = meanAppSec(rs)
		}

		// Slate with 3-way sharing enabled.
		clk := vtime.NewClock()
		sim := h.newSlateSim(clk)
		sim.Sched.MaxConcurrent = 3
		rs, err := run.NewDriver(clk, sim).Run(jobs)
		if err != nil {
			return fmt.Errorf("triple %s under slate: %w", names, err)
		}
		row.MeanSec[Slate] = meanAppSec(rs)
		for _, d := range sim.Sched.Decisions() {
			if d.Action == "corun" && len(d.Partner) > 0 && containsPlus(d.Partner) {
				row.Coruns3++
			}
		}
		res.Rows[mi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, row := range res.Rows {
		sum += row.MeanSec[MPS]/row.MeanSec[Slate] - 1
	}
	res.SlateVsMPS = sum / float64(len(res.Rows))
	return res, nil
}

func containsPlus(s string) bool {
	for _, r := range s {
		if r == '+' {
			return true
		}
	}
	return false
}

// Render prints the triple results.
func (r *TriplesResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Triple,
			f3(row.MeanSec[CUDA]), f3(row.MeanSec[MPS]), f3(row.MeanSec[Slate]),
			pct(row.MeanSec[MPS]/row.MeanSec[Slate] - 1),
			fmt.Sprintf("%d", row.Coruns3),
		})
	}
	out := "Extension — three concurrent applications (3-way spatial sharing, mean app seconds)\n"
	out += table([]string{"Triple", "CUDA", "MPS", "Slate3", "Slate vs MPS", "3-way coruns"}, rows)
	out += fmt.Sprintf("Slate (3-way) vs MPS: %s mean over triples\n", pct(r.SlateVsMPS))
	return out
}
