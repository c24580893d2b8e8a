package harness_test

import (
	"fmt"

	"slate/harness"
	"slate/workloads"
)

// A/B a pairing across the three schedulers: size the jobs once, then run
// them under each scheduler on a fresh simulated device.
func ExampleHarness_RunJobs() {
	h := harness.New(harness.Config{LoopSeconds: 1.0})
	bs, _ := workloads.ByCode("BS")
	rg, _ := workloads.ByCode("RG")
	jobs, err := h.JobsFor([]*workloads.App{bs, rg})
	if err != nil {
		panic(err)
	}
	mean := map[harness.Sched]float64{}
	for _, s := range harness.Scheds() {
		rs, _, err := h.RunJobs(s, jobs)
		if err != nil {
			panic(err)
		}
		for _, r := range rs {
			mean[s] += r.AppSec() / float64(len(rs))
		}
	}
	fmt.Println("slate beats mps on BS-RG:", mean[harness.Slate] < mean[harness.MPS])
	// Output: slate beats mps on BS-RG: true
}
