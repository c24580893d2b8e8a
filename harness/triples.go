package harness

import (
	"fmt"
	"strings"

	"slate/internal/daemon"
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

// tripleMixes are the three-application workloads of the N-way extension.
var tripleMixes = [][3]string{
	{"BS", "RG", "RG"}, // bandwidth kernel + two low-intensity partners
	{"GS", "RG", "BS"}, // the two flagship corun partners together
	{"MM", "RG", "TR"}, // compute + low + bandwidth
}

// threeWay is the Slate daemon of the triples: 3-way sharing enabled.
var threeWay mutator = func(b *daemon.SimBackend) { b.Sched.MaxConcurrent = 3 }

// tripleApps resolves a mix into fresh applications. Self-repeats get
// distinct kernel names so the scheduler and engine treat them as separate
// clients' kernels; the content-addressed caches still share their
// locality and solo measurements.
func tripleApps(mix [3]string) ([]*workloads.App, error) {
	apps, err := appsByCode(mix[:]...)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(apps); i++ {
		apps[i].Kernel.Name = fmt.Sprintf("%s#%d", apps[i].Kernel.Name, i)
	}
	return apps, nil
}

// Triples runs three-application mixes under CUDA, MPS, and 3-way Slate.
func (h *Harness) Triples() (*TriplesResult, error) {
	// Each mix is an independent cell; the cross-mix mean is a post-pass.
	res := &TriplesResult{Rows: make([]TripleRow, len(tripleMixes))}
	mixApps := make([][]*workloads.App, len(tripleMixes))
	for mi, mix := range tripleMixes {
		apps, err := tripleApps(mix)
		if err != nil {
			return nil, err
		}
		mixApps[mi] = apps
	}
	h.calibrate(sweepShapes, mixApps...)
	err := h.forEachCell(len(tripleMixes), func(mi int) error {
		apps := mixApps[mi]
		names := strings.Join(tripleMixes[mi][:], "-")
		row := TripleRow{Triple: names}

		for _, s := range []Sched{CUDA, MPS} {
			rs, err := h.runApps(s, apps)
			if err != nil {
				return fmt.Errorf("triple %s under %v: %w", names, s, err)
			}
			row.MeanSec[s] = meanAppSec(rs)
		}

		// Slate with 3-way sharing enabled.
		jobs, err := h.jobsFor(apps)
		if err != nil {
			return err
		}
		rs, sc, err := h.runSlate(jobs, threeWay)
		if err != nil {
			return fmt.Errorf("triple %s under slate: %w", names, err)
		}
		row.MeanSec[Slate] = meanAppSec(rs)
		for _, d := range sc.Decisions() {
			if d.Action == "corun" && strings.Contains(d.Partner, "+") {
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
