package harness

import (
	"fmt"

	"slate/internal/engine"
	"slate/internal/policy"
	"slate/internal/profile"
	"slate/workloads"
)

// ProfileRow is one Table II line.
type ProfileRow struct {
	Code     string
	Class    policy.Class
	GFLOPS   float64
	AccessBW float64
	// PaperGFLOPS and PaperBW are the published values for side-by-side
	// reporting.
	PaperGFLOPS, PaperBW float64
}

// TableIIResult reproduces Table II: the benchmark profiles.
type TableIIResult struct {
	Rows []ProfileRow
}

var paperTableII = map[string][2]float64{
	"BS": {161.3, 401.49},
	"GS": {19.6, 340.9},
	"MM": {1525, 403.5},
	"RG": {4.2, 71.6},
	"TR": {0.0, 568.6},
}

// TableII profiles the five applications solo under the hardware scheduler,
// exactly as the paper collected them with nvprof, using the harness's
// shared profiler.
func (h *Harness) TableII() (*TableIIResult, error) {
	return h.TableIIWith(h.Prof)
}

// TableIIWith runs Table II against a caller-supplied profiler — e.g. one
// preloaded from a persisted profile table (Table V's "offline" row). Each
// application profiles as an independent cell; the rows assemble afterwards
// in application order from the now-warm cache.
func (h *Harness) TableIIWith(prof *profile.Profiler) (*TableIIResult, error) {
	apps := workloads.Apps()
	err := h.forEachCell(len(apps), func(i int) error {
		_, err := prof.Get(apps[i].Kernel)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &TableIIResult{}
	for _, app := range apps {
		p, err := prof.Get(app.Kernel)
		if err != nil {
			return nil, err
		}
		paper := paperTableII[app.Code]
		res.Rows = append(res.Rows, ProfileRow{
			Code:   app.Code,
			Class:  p.Class,
			GFLOPS: p.GFLOPS, AccessBW: p.AccessBW,
			PaperGFLOPS: paper[0], PaperBW: paper[1],
		})
	}
	return res, nil
}

// Render prints measured-vs-paper profiles.
func (r *TableIIResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Code, row.Class.String(),
			f1(row.GFLOPS), f1(row.PaperGFLOPS),
			f1(row.AccessBW), f1(row.PaperBW),
		}
	}
	return "Table II — Benchmark profiles (solo, CUDA)\n" + table(
		[]string{"App", "Class", "GFLOP/s", "(paper)", "BW GB/s", "(paper)"}, rows)
}

// CSV emits the profile rows.
func (r *TableIIResult) CSV() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Code, row.Class.String(), f2(row.GFLOPS), f2(row.AccessBW)}
	}
	return csvJoin([]string{"app", "class", "gflops", "access_gbs"}, rows)
}

// tableIRender prints the heuristic policy table (Table I) verbatim.
func tableIRender() string {
	classes := []policy.Class{policy.LC, policy.MC, policy.HC, policy.MM, policy.HM}
	head := []string{""}
	for _, c := range classes {
		head = append(head, c.String())
	}
	var rows [][]string
	for _, a := range classes {
		row := []string{a.String()}
		for _, b := range classes {
			if policy.Corun(a, b) {
				row = append(row, "corun")
			} else {
				row = append(row, "solo")
			}
		}
		rows = append(rows, row)
	}
	return "Table I — Slate heuristic scheduling policy\n" + table(head, rows)
}

// TableIIIResult reproduces Table III: GS under CUDA vs Slate.
type TableIIIResult struct {
	CUDA, Slate engine.Metrics
	ClockHz     float64
}

// TableIII runs GS solo under both schedulers — two cells — and reports
// the hardware counters the paper contrasts.
func (h *Harness) TableIII() (*TableIIIResult, error) {
	spec := workloads.GS()
	opts := []engine.LaunchOpts{
		{Mode: engine.HardwareSched},
		{Mode: engine.SlateSched, TaskSize: engine.DefaultTaskSize, SMLow: 0, SMHigh: h.Dev.NumSMs - 1},
	}
	var ms [2]engine.Metrics
	err := h.forEachCell(len(opts), func(i int) error {
		m, err := h.soloRun(spec, opts[i])
		if err != nil {
			return err
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TableIIIResult{CUDA: ms[0], Slate: ms[1], ClockHz: h.Dev.SM.ClockHz}, nil
}

// Render prints the CUDA/Slate/Δ% rows of Table III.
func (r *TableIIIResult) Render() string {
	d := func(c, s float64) string {
		if c == 0 {
			return "-"
		}
		return pct(s/c - 1)
	}
	rows := [][]string{
		{"IPC", f2(r.CUDA.IPC(r.ClockHz)), f2(r.Slate.IPC(r.ClockHz)),
			d(r.CUDA.IPC(r.ClockHz), r.Slate.IPC(r.ClockHz)), "+30%"},
		{"Mem. Access BW (GB/s)", f1(r.CUDA.AccessBW()), f1(r.Slate.AccessBW()),
			d(r.CUDA.AccessBW(), r.Slate.AccessBW()), "+38%"},
		{"% Stalls: Mem Throttle", f1(r.CUDA.StallMemThrottle * 100), f1(r.Slate.StallMemThrottle * 100),
			fmt.Sprintf("%+.1f", (r.Slate.StallMemThrottle-r.CUDA.StallMemThrottle)*100), "-26.1"},
		{"Execution Time (ms)", f1(r.CUDA.Duration().Millis()), f1(r.Slate.Duration().Millis()),
			d(r.Slate.Duration().Seconds(), r.CUDA.Duration().Seconds()), "+28%"},
	}
	return "Table III — Gaussian elimination, CUDA vs Slate\n" + table(
		[]string{"Metric", "CUDA", "Slate", "Δ%", "(paper Δ)"}, rows)
}
