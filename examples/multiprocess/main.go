// Multiprocess: three application "processes" share one Slate daemon —
// context funneling (§IV-A). Each client session loops a different real
// workload (SGEMM, transpose, Sobol quasirandom); the daemon profiles each
// kernel on first sight, coruns complementary ones on split worker pools,
// and every result is verified against its reference.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"slate/framework"
	"slate/workloads"
)

func main() {
	srv, dial := framework.NewLocalDaemon(8)

	var wg sync.WaitGroup
	type report struct {
		name   string
		reps   int
		dur    time.Duration
		verify func() bool
	}
	reports := make([]report, 3)

	runClient := func(idx int, name string, reps int, kernel *framework.Kernel, verify func() bool) {
		defer wg.Done()
		cli, err := framework.Connect(srv, dial, name)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := cli.Launch(kernel, framework.DefaultTaskSize); err != nil {
				log.Fatal(err)
			}
			if err := cli.Synchronize(); err != nil {
				log.Fatal(err)
			}
		}
		reports[idx] = report{name: name, reps: reps, dur: time.Since(start), verify: verify}
	}

	mm := workloads.NewSGEMM(256)
	tr := workloads.NewTranspose(512)
	qr := workloads.NewQuasiRandom(1<<16, 3)

	wg.Add(3)
	go runClient(0, "sgemm", 4, mm.Kernel(), func() bool {
		for _, ij := range [][2]int{{0, 0}, {100, 200}, {255, 255}} {
			want := mm.ReferenceCell(ij[0], ij[1])
			got := mm.C[ij[0]*mm.N+ij[1]]
			if d := got - want; d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	})
	go runClient(1, "transpose", 6, tr.Kernel(), tr.Verify)
	go runClient(2, "quasirandom", 6, qr.Kernel(), func() bool {
		return qr.Out[1] == 0.5 && qr.Out[2] == 0.25 && qr.Out[3] == 0.75
	})
	wg.Wait()

	fmt.Println("three processes funneled through one Slate daemon:")
	for _, r := range reports {
		status := "OK"
		if !r.verify() {
			status = "FAILED"
		}
		fmt.Printf("  %-12s %d reps in %8.1fms  verify: %s\n",
			r.name, r.reps, float64(r.dur.Microseconds())/1e3, status)
		if status != "OK" {
			log.Fatal("verification failed")
		}
	}

	fmt.Println("\ndaemon scheduling decisions:")
	for _, d := range srv.Exec.Decisions() {
		line := fmt.Sprintf("  %-12s %-7s", d.Kernel, d.Action)
		if d.Action == "solo" || d.Action == "corun" || d.Action == "grow" {
			line += fmt.Sprintf(" workers %d-%d", d.SMLow, d.SMHigh)
		}
		if d.Partner != "" {
			line += " beside " + d.Partner
		}
		if d.Reason != "" {
			line += " (" + d.Reason + ")"
		}
		fmt.Println(line)
	}
}
