// Command slaterun executes one or more of the paper's applications
// concurrently under a chosen scheduler on the simulated Titan Xp and
// prints per-application results. It runs through the evaluation harness,
// so a pair's numbers are the ones `slatebench -exp fig7` reports at the
// same -loop. With -trace it also writes the Slate scheduler's decision
// timeline as JSONL.
//
// Usage:
//
//	slaterun -sched slate -apps BS,RG -loop 3
//	slaterun -sched slate -apps GS,RG -trace timeline.jsonl
//	slaterun -sched cuda  -apps GS
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slate/harness"
	"slate/internal/trace"
	"slate/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status (2 for a usage error, 1 for
// a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slaterun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schedFlag := fs.String("sched", "slate", "scheduler: cuda|mps|slate")
	codes := fs.String("apps", "BS,RG", "comma-separated application codes (BS,GS,MM,RG,TR)")
	loop := fs.Float64("loop", 3.0, "solo kernel loop target in seconds")
	traceOut := fs.String("trace", "", "write the scheduling timeline as JSONL (slate only)")
	gantt := fs.Bool("gantt", false, "print an ASCII SM-occupancy timeline (slate only)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	s, ok := schedByName(*schedFlag)
	if !ok {
		fmt.Fprintf(stderr, "slaterun: unknown scheduler %q\n", *schedFlag)
		return 2
	}
	if s != harness.Slate && (*gantt || *traceOut != "") {
		fmt.Fprintln(stderr, "slaterun: -gantt and -trace require -sched slate")
		return 2
	}
	var apps []*workloads.App
	for _, code := range strings.Split(*codes, ",") {
		app, err := workloads.ByCode(strings.TrimSpace(code))
		if err != nil {
			fmt.Fprintf(stderr, "slaterun: %v\n", err)
			return 2
		}
		apps = append(apps, app)
	}

	h := harness.New(harness.Config{LoopSeconds: *loop})
	jobs, err := h.JobsFor(apps)
	if err != nil {
		fmt.Fprintf(stderr, "slaterun: %v\n", err)
		return 1
	}
	results, decisions, err := h.RunJobs(s, jobs)
	if err != nil {
		fmt.Fprintf(stderr, "slaterun: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "scheduler: %s\n", *schedFlag)
	fmt.Fprintf(stdout, "%-4s %10s %10s %10s %10s %10s %8s\n",
		"app", "app(s)", "kernel(s)", "host(s)", "comm(s)", "inject(s)", "launches")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-4s %10.3f %10.3f %10.3f %10.3f %10.3f %8d\n",
			r.Code, r.AppSec(), r.KernelSec, r.HostSec, r.CommSec, r.InjectSec, r.Launches)
	}

	log := &trace.Log{}
	log.AddDecisions(decisions)
	if *gantt {
		fmt.Fprintln(stdout, "\nSM occupancy timeline (█ = whole device):")
		fmt.Fprint(stdout, log.Gantt(100, h.Dev.NumSMs))
		fmt.Fprintf(stdout, "spatial utilization: %.1f%%\n", log.Utilization(h.Dev.NumSMs)*100)
	}
	if *traceOut != "" {
		log.AddResults(results)
		if err := writeTrace(log, *traceOut); err != nil {
			fmt.Fprintf(stderr, "slaterun: %v\n", err)
			return 1
		}
		sum := log.Summary()
		fmt.Fprintf(stdout, "trace: %d events → %s (%d corun, %d solo, %d grow)\n",
			log.Len(), *traceOut, sum["corun"], sum["solo"], sum["grow"])
	}
	return 0
}

// schedByName resolves a -sched value, case-insensitively.
func schedByName(name string) (harness.Sched, bool) {
	for _, s := range harness.Scheds() {
		if strings.EqualFold(name, s.String()) {
			return s, true
		}
	}
	return 0, false
}

// writeTrace writes the log as JSONL to path.
func writeTrace(log *trace.Log, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
