// Cloudtrace: the multi-tenant GPU-cloud setting — eight applications
// arriving over time on one device — under vanilla CUDA, MPS, and Slate,
// with an SM-occupancy timeline of the Slate run.
package main

import (
	"fmt"
	"log"

	"slate/harness"
	"slate/internal/trace"
	"slate/workloads"
)

func main() {
	h := harness.New(harness.Config{LoopSeconds: 1.0})

	fmt.Println("running an 8-job arrival trace under CUDA, MPS, and Slate…")
	r, err := h.CloudTrace(harness.CloudTraceConfig{Jobs: 8, MeanInterArrivalSec: 0.3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(r.Render())

	// Run a 4-job window under Slate on the same harness to extract its
	// scheduling timeline. Distinct instance names make repeated codes
	// separate clients.
	var apps []*workloads.App
	for i, code := range []string{"GS", "RG", "BS", "RG"} {
		app, err := workloads.ByCode(code)
		if err != nil {
			log.Fatal(err)
		}
		app.Kernel.Name = fmt.Sprintf("%s@%d", app.Kernel.Name, i)
		apps = append(apps, app)
	}
	jobs, err := h.JobsFor(apps)
	if err != nil {
		log.Fatal(err)
	}
	for i := range jobs {
		jobs[i].StartDelaySec = 0.2 * float64(i)
	}
	_, decisions, err := h.RunJobs(harness.Slate, jobs)
	if err != nil {
		log.Fatal(err)
	}
	timeline := &trace.Log{}
	timeline.AddDecisions(decisions)
	fmt.Println("\nSlate SM-occupancy timeline for a 4-job window (█ = whole device):")
	fmt.Print(timeline.Gantt(100, h.Dev.NumSMs))
}
