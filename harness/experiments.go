package harness

// Output is everything one run of an experiment can be written as: the
// rendered table, plus its CSV series and its SVG figure when the result has
// them (empty otherwise).
type Output struct {
	Render, CSV, SVG string
}

// Experiment is one experiment of the evaluation, named as slatebench's -exp
// selects it.
type Experiment struct {
	Name string
	Run  func(*Harness) (Output, error)
}

// Experiments lists every experiment the harness reproduces, in the order
// slatebench's -exp all runs them: the paper's Fig. 1, Tables I–V and
// Figs. 5–7 (§V), then the scheduler-design ablation and the extension
// studies.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", func(h *Harness) (Output, error) { return OutputOf(h.Fig1()) }},
		{"table1", func(*Harness) (Output, error) { return Output{Render: TableIRender()}, nil }},
		{"table2", func(h *Harness) (Output, error) { return OutputOf(h.TableII()) }},
		{"table3", func(h *Harness) (Output, error) { return OutputOf(h.TableIII()) }},
		{"table4", func(h *Harness) (Output, error) { return OutputOf(h.TableIV()) }},
		{"table5", func(h *Harness) (Output, error) { return OutputOf(h.TableV()) }},
		{"fig5", func(h *Harness) (Output, error) { return OutputOf(h.Fig5()) }},
		{"fig6", func(h *Harness) (Output, error) { return OutputOf(h.Fig6()) }},
		{"fig7", func(h *Harness) (Output, error) { return OutputOf(h.Fig7()) }},
		{"ablation", func(h *Harness) (Output, error) { return OutputOf(h.Ablations()) }},
		{"staticmerge", func(h *Harness) (Output, error) { return OutputOf(h.StaticMerge()) }},
		{"triples", func(h *Harness) (Output, error) { return OutputOf(h.Triples()) }},
		// The trace is sampled at seed 1 whatever the harness's seed, so the
		// same ten jobs arrive at every model seed.
		{"cloud", func(h *Harness) (Output, error) {
			return OutputOf(h.CloudTrace(CloudTraceConfig{Jobs: 10, Seed: 1}))
		}},
		{"extpairs", func(h *Harness) (Output, error) { return OutputOf(h.ExtendedPairs()) }},
		{"sensitivity", func(h *Harness) (Output, error) { return OutputOf(h.Sensitivity()) }},
	}
}

// OutputOf renders a result every way its type can be rendered, so the CSV
// and the SVG come from the result the run computed once.
func OutputOf(r interface{ Render() string }, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	out := Output{Render: r.Render()}
	if c, ok := r.(interface{ CSV() string }); ok {
		out.CSV = c.CSV()
	}
	if f, ok := r.(interface{ SVG() string }); ok {
		out.SVG = f.SVG()
	}
	return out, nil
}
