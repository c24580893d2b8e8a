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
		"worker count for experiment cells and inside each simulation (output is byte-identical at any value; 1 = serial)")
	fleetSessions := fs.Int("fleet-sessions", 100_000, "concurrent sessions per fleetload leg (the test and CI use 2000)")

	// The -exp table is the harness's experiments, then the chaos and load
	// scenarios. It exists before the flags are parsed, so -exp's help and
	// the unknown-experiment message are read off it; the scenarios read
	// their flags when they run.
	chaos := func(sc *scenario) harness.Experiment {
		return harness.Experiment{Name: sc.name, Run: func(*harness.Harness) (harness.Output, error) {
			r, err := sc.run(*seed)
			return harness.Output{Render: r}, err // a failed chaos run still shows its table
		}}
	}
	experiments := append(harness.Experiments(),
		chaos(faults), chaos(overload), chaos(crashChaos), chaos(fleetChaos), chaos(rollingChaos),
		harness.Experiment{Name: byNameOnly, Run: func(*harness.Harness) (harness.Output, error) {
			r, err := fleetLoad(*fleetSessions).run(*seed)
			return harness.Output{Render: r}, err
		}},
	)
	var names []string
	for _, e := range experiments {
		names = append(names, e.Name)
	}
	table := "all|" + strings.Join(names, "|")
	exp := fs.String("exp", "all", "experiment: "+table+" (all leaves out "+byNameOnly+")")
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

	var dev *gpu.Device
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
	h := harness.New(harness.Config{LoopSeconds: *loop, Dev: dev, Seed: *seed, Parallel: *parallel, SimWorkers: *parallel})

	for _, e := range experiments {
		if selected != e.Name && (selected != "all" || e.Name == byNameOnly) {
			continue
		}
		start := time.Now()
		runExp := e.Run
		if e.Name == "table2" && *profileTable != "" {
			runExp = func(h *harness.Harness) (harness.Output, error) { return profiledTableII(h, *profileTable, stdout) }
		}
		out, err := runExp(h)
		if out.Render != "" {
			fmt.Fprintln(stdout, out.Render)
		}
		if err != nil {
			fmt.Fprintf(stderr, "slatebench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
		write := func(dir, ext, content string) error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(dir, e.Name+ext)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
			return nil
		}
		if *csvDir != "" && out.CSV != "" {
			err = write(*csvDir, ".csv", out.CSV)
		}
		if err == nil && *svgDir != "" && out.SVG != "" {
			err = write(*svgDir, ".svg", out.SVG)
		}
		if err != nil {
			fmt.Fprintf(stderr, "slatebench: %s: %v\n", e.Name, err)
			return 1
		}
	}
	return 0
}

// byNameOnly is left out of -exp all: it deliberately runs a 100k-session
// storm four times (two legs, and the double run).
const byNameOnly = "fleetload"

// profiledTableII is table2 against the -profiles file: the table is loaded
// when present and saved after the run.
func profiledTableII(h *harness.Harness, path string, stdout io.Writer) (harness.Output, error) {
	prof := profile.New(h.Dev, h.Model)
	st, err := prof.LoadFile(path)
	if err != nil {
		return harness.Output{}, err
	}
	fmt.Fprintf(stdout, "loaded profile table %s (%d entries)\n", path, st.Loaded)
	r, err := h.TableIIWith(prof)
	if err == nil {
		if err = prof.SaveFile(path, nil); err == nil {
			fmt.Fprintf(stdout, "saved profile table %s (%d entries)\n", path, prof.Len())
		}
	}
	return harness.OutputOf(r, err)
}
