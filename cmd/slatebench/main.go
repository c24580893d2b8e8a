// Command slatebench regenerates the paper's evaluation (§V) on the
// simulated Titan Xp: Fig. 1, Tables I-V, Fig. 5, Fig. 6, and Fig. 7.
//
// Usage:
//
//	slatebench -exp all            # everything, text tables to stdout
//	slatebench -exp fig7 -loop 30  # one experiment at full loop length
//	slatebench -exp fig1 -csv out/ # also write CSV series for plotting
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"slate/gpu"
	"slate/harness"
	"slate/internal/profile"
)

// experiment is one row of the -exp table.
type experiment struct {
	name string
	run  func() (output, error)
	// heavy keeps the experiment out of -exp all: it is run by name only.
	heavy bool
}

// output is everything one run of an experiment can be written as; csv and
// svg are empty when the experiment has no series or no figure.
type output struct {
	render, csv, svg string
}

// artifacts renders a harness result every way its type can be rendered, so
// -csv and -svg are written from the result -exp computed once.
func artifacts(r interface{ Render() string }, err error) (output, error) {
	if err != nil {
		return output{}, err
	}
	out := output{render: r.Render()}
	if c, ok := r.(interface{ CSV() string }); ok {
		out.csv = c.CSV()
	}
	if f, ok := r.(interface{ SVG() string }); ok {
		out.svg = f.SVG()
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns the exit status (2 for a usage error, 1 for
// a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slatebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	loop := fs.Float64("loop", 3.0, "solo kernel loop target in seconds (paper used ~30)")
	seed := fs.Int64("seed", 1, "trace-model and chaos-scenario seed (same seed = same tables)")
	csvDir := fs.String("csv", "", "directory to write CSV series into (optional)")
	svgDir := fs.String("svg", "", "directory to write SVG figures into (optional)")
	devName := fs.String("device", "titanxp", "device preset: titanxp|p100|v100|jetson")
	profileTable := fs.String("profiles", "", "profile-table file, a cache: loaded if present, saved after table2 (a file in the old JSON format loads no entries and is rewritten by the same run)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"worker-pool width for experiment cells (output is byte-identical at any value; 1 = serial)")
	simWorkers := fs.Int("sim-workers", runtime.NumCPU(),
		"intra-simulation worker count: sharded sub-simulations and engine fan (byte-identical at any value; 1 = serial)")
	fleetSessions := fs.Int("fleet-sessions", 100_000, "concurrent sessions per fleetload leg (the test and CI use 2000)")

	// The experiments close over the harness and the device, which exist once
	// the flags are parsed; the table exists before, so -exp's help and the
	// unknown-experiment message are read off it.
	var h *harness.Harness
	var dev *gpu.Device
	chaos := func(sc *scenario) experiment {
		return experiment{name: sc.name, run: func() (output, error) {
			r, err := sc.run(*seed)
			return output{render: r}, err // a failed chaos run still shows its table
		}}
	}
	experiments := []experiment{
		{name: "fig1", run: func() (output, error) { return artifacts(h.Fig1()) }},
		{name: "table1", run: func() (output, error) { return output{render: harness.TableIRender()}, nil }},
		{name: "table2", run: func() (output, error) {
			prof := profile.New(dev, h.Model)
			if *profileTable != "" {
				st, err := prof.LoadFile(*profileTable)
				if err != nil {
					return output{}, err
				}
				fmt.Fprintf(stdout, "loaded profile table %s (%d entries)\n", *profileTable, st.Loaded)
			}
			r, err := h.TableIIWith(prof)
			if err == nil && *profileTable != "" {
				if err = prof.SaveFile(*profileTable, nil); err == nil {
					fmt.Fprintf(stdout, "saved profile table %s (%d entries)\n", *profileTable, prof.Len())
				}
			}
			return artifacts(r, err)
		}},
		{name: "table3", run: func() (output, error) { return artifacts(h.TableIII()) }},
		{name: "table4", run: func() (output, error) { return artifacts(h.TableIV()) }},
		{name: "table5", run: func() (output, error) { return artifacts(h.TableV()) }},
		{name: "fig5", run: func() (output, error) { return artifacts(h.Fig5()) }},
		{name: "fig6", run: func() (output, error) { return artifacts(h.Fig6()) }},
		{name: "fig7", run: func() (output, error) { return artifacts(h.Fig7()) }},
		{name: "ablation", run: func() (output, error) { return artifacts(h.Ablations()) }},
		{name: "staticmerge", run: func() (output, error) { return artifacts(h.StaticMerge()) }},
		{name: "triples", run: func() (output, error) { return artifacts(h.Triples()) }},
		{name: "cloud", run: func() (output, error) {
			return artifacts(h.CloudTrace(harness.CloudTraceConfig{Jobs: 10, Seed: 1}))
		}},
		{name: "extpairs", run: func() (output, error) { return artifacts(h.ExtendedPairs()) }},
		{name: "sensitivity", run: func() (output, error) { return artifacts(h.Sensitivity()) }},
		chaos(faults), chaos(overload), chaos(crashChaos), chaos(fleetChaos), chaos(rollingChaos),
		// Not part of -exp all: it deliberately runs a 100k-session storm four
		// times (two legs, and the double run).
		{name: "fleetload", heavy: true, run: func() (output, error) {
			r, err := fleetLoad(*fleetSessions).run(*seed)
			return output{render: r}, err
		}},
	}
	var names, byNameOnly []string
	for _, e := range experiments {
		names = append(names, e.name)
		if e.heavy {
			byNameOnly = append(byNameOnly, e.name)
		}
	}
	table := "all|" + strings.Join(names, "|")
	exp := fs.String("exp", "all", "experiment: "+table+" (all leaves out "+strings.Join(byNameOnly, ", ")+")")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	selected := strings.ToLower(*exp)
	if selected != "all" && !slices.Contains(names, selected) {
		fmt.Fprintf(stderr, "slatebench: unknown experiment %q (have %s)\n", *exp, table)
		return 2
	}

	switch strings.ToLower(*devName) {
	case "titanxp":
		dev = gpu.TitanXp()
	case "p100":
		dev = gpu.TeslaP100()
	case "v100":
		dev = gpu.TeslaV100()
	case "jetson":
		dev = gpu.JetsonTX2()
	default:
		fmt.Fprintf(stderr, "slatebench: unknown device %q\n", *devName)
		return 2
	}
	fmt.Fprintf(stdout, "device: %s\n\n", dev.Name)
	h = harness.New(harness.Config{LoopSeconds: *loop, Dev: dev, Seed: *seed, Parallel: *parallel, SimWorkers: *simWorkers})

	for _, e := range experiments {
		if selected != e.name && (selected != "all" || e.heavy) {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if out.render != "" {
			fmt.Fprintln(stdout, out.render)
		}
		if err != nil {
			fmt.Fprintf(stderr, "slatebench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		write := func(dir, ext, content string) error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(dir, e.name+ext)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
			return nil
		}
		if *csvDir != "" && out.csv != "" {
			err = write(*csvDir, ".csv", out.csv)
		}
		if err == nil && *svgDir != "" && out.svg != "" {
			err = write(*svgDir, ".svg", out.svg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "slatebench: %s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}
