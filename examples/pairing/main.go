// Pairing: the paper's headline experiment on one pair — run BlackScholes
// and the QuasiRandomGenerator concurrently under vanilla CUDA, MPS, and
// Slate on the simulated Titan Xp, and watch the workload-aware corun win
// (Table IV / Fig. 7's BS-RG bar, paper: Slate +30.55% over MPS).
package main

import (
	"fmt"
	"log"

	"slate/harness"
	"slate/workloads"
)

func main() {
	// Rep counts per the paper's methodology: the harness loops each kernel
	// to a fixed solo duration, and scales Slate's one-time injection cost
	// to that loop, exactly as `slatebench -exp fig7 -loop 2` does.
	h := harness.New(harness.Config{LoopSeconds: 2.0})
	bs, _ := workloads.ByCode("BS")
	rg, _ := workloads.ByCode("RG")
	jobs, err := h.JobsFor([]*workloads.App{bs, rg})
	if err != nil {
		log.Fatal(err)
	}

	var mean [3]float64
	for _, s := range harness.Scheds() {
		results, _, err := h.RunJobs(s, jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s", s)
		for _, r := range results {
			fmt.Printf("  %s=%.3fs", r.Code, r.AppSec())
			mean[s] += r.AppSec()
		}
		mean[s] /= float64(len(results))
		fmt.Printf("  mean=%.3fs\n", mean[s])
	}

	cuda, mps, slate := mean[harness.CUDA], mean[harness.MPS], mean[harness.Slate]
	fmt.Printf("\nSlate vs MPS:  %+.1f%%  (paper: +30.55%% for BS-RG)\n", (mps/slate-1)*100)
	fmt.Printf("Slate vs CUDA: %+.1f%%\n", (cuda/slate-1)*100)
}
