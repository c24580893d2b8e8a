package harness

import (
	"fmt"

	"slate/internal/daemon"
	"slate/internal/profile"
	"slate/internal/sched"
	"slate/workloads"
)

// AblationVariant is one scheduler-design variant evaluated over the
// representative pairings.
type AblationVariant struct {
	Name string
	// Desc explains what the variant changes.
	Desc string
	// GainVsMPS maps pair → Slate-variant gain over MPS (positive =
	// variant faster).
	GainVsMPS map[string]float64
	// Mean is the average gain over the evaluated pairs.
	Mean float64
}

// AblationResult holds the design-choice ablation of DESIGN.md §3: each
// mechanism the paper's scheduler relies on is disabled or replaced, and
// the throughput cost measured.
type AblationResult struct {
	Pairs    []string
	Variants []AblationVariant
}

// ablationPairs are the representative pairings: two corun winners, the
// non-complementary pair the policy must refuse, the software-scheduling
// special case, and the imbalance regression.
var ablationPairs = [][2]string{
	{"BS", "RG"}, // flagship corun
	{"GS", "RG"}, // corun with a compute-hungry survivor
	{"BS", "TR"}, // must NOT corun (both memory-bound)
	{"GS", "GS"}, // consecutive, software-scheduling gain
}

// ablationVariants are the scheduler-design variants, each a mutator of
// the simulated Slate daemon (nil is the default scheduler):
//
//   - table-i (default): Table I policy + measured-scaling split + grace.
//   - always-corun: pair anything with anything (no workload awareness).
//   - never-corun: serialized Slate (software scheduling only).
//   - even-split: ignore scaling profiles, always split 15/15.
//   - no-grace: grow the survivor immediately on every completion
//     (partition thrash on looped kernels).
//   - antt-predict: §III-B's ANTT criterion from the scaling profiles.
var ablationVariants = []struct {
	name, desc string
	mut        mutator
}{
	{"table-i", "paper's policy + scaling split + grace", nil},
	{"always-corun", "corun every pair (no workload awareness)", func(b *daemon.SimBackend) {
		b.Sched.CorunFn = func(*profile.Profile, *profile.Profile) bool { return true }
	}},
	{"never-corun", "serialize every pair (software scheduling only)", func(b *daemon.SimBackend) {
		b.Sched.CorunFn = func(*profile.Profile, *profile.Profile) bool { return false }
	}},
	{"even-split", "fixed 15/15 partition (no scaling profiles)", func(b *daemon.SimBackend) {
		b.Sched.SplitFn = func(*profile.Profile, *profile.Profile) int { return b.Dev.NumSMs / 2 }
	}},
	{"no-grace", "grow survivor immediately (partition thrash)", func(b *daemon.SimBackend) {
		b.Sched.GrowGraceSeconds = 0
	}},
	{"antt-predict", "§III-B ANTT criterion from scaling profiles", func(b *daemon.SimBackend) {
		b.Sched.CorunFn = sched.ANTTPredictCorun(b.Sched, 0.10)
	}},
}

// Ablations evaluates every ablationVariants entry against the same MPS
// baseline.
func (h *Harness) Ablations() (*AblationResult, error) {
	res := &AblationResult{}
	// MPS baselines per pair, computed once — one cell per pair.
	np := len(ablationPairs)
	keys := make([]string, np)
	baseline := make([]float64, np)
	pairs := make([][]*workloads.App, np)
	for p, pc := range ablationPairs {
		keys[p] = pc[0] + "-" + pc[1]
		res.Pairs = append(res.Pairs, keys[p])
		pair, err := appsByCode(pc[0], pc[1])
		if err != nil {
			return nil, err
		}
		pairs[p] = pair
	}
	h.calibrate(sweepShapes, pairs...)
	err := h.forEachCell(np, func(p int) error {
		rs, err := h.runApps(MPS, pairs[p])
		if err != nil {
			return err
		}
		baseline[p] = meanAppSec(rs)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Variant × pair matrix: every combination is an independent cell (each
	// builds its own mutated daemon); the gain maps and means assemble
	// afterwards in declaration order.
	gains := make([][]float64, len(ablationVariants))
	for v := range ablationVariants {
		gains[v] = make([]float64, np)
	}
	err = h.forEachCell(len(ablationVariants)*np, func(c int) error {
		v, p := c/np, c%np
		jobs, err := h.JobsFor(pairs[p])
		if err != nil {
			return err
		}
		mut := ablationVariants[v].mut
		rs, _, err := h.runSlate(jobs, func(b *daemon.SimBackend) {
			if mut != nil {
				mut(b)
			}
			resultsOnly(b)
		})
		if err != nil {
			return fmt.Errorf("ablation %s on %s: %w", ablationVariants[v].name, keys[p], err)
		}
		gains[v][p] = baseline[p]/meanAppSec(rs) - 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	for v, vd := range ablationVariants {
		av := AblationVariant{Name: vd.name, Desc: vd.desc, GainVsMPS: map[string]float64{}}
		sum := 0.0
		for p := range ablationPairs {
			av.GainVsMPS[keys[p]] = gains[v][p]
			sum += gains[v][p]
		}
		av.Mean = sum / float64(np)
		res.Variants = append(res.Variants, av)
	}
	return res, nil
}

// Render prints the variant × pair gain matrix.
func (r *AblationResult) Render() string {
	head := []string{"Variant", "Description"}
	head = append(head, r.Pairs...)
	head = append(head, "Mean")
	var rows [][]string
	for _, v := range r.Variants {
		row := []string{v.Name, v.Desc}
		for _, p := range r.Pairs {
			row = append(row, pct(v.GainVsMPS[p]))
		}
		row = append(row, pct(v.Mean))
		rows = append(rows, row)
	}
	return "Ablation — scheduler design variants, gain vs MPS (higher is better)\n" +
		table(head, rows)
}
