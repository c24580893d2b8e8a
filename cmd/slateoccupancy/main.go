// Command slateoccupancy is the CUDA-occupancy-calculator analog for the
// device models in this repository: given a block shape, it reports the
// resident-block count, achieved occupancy, and Slate persistent-worker
// counts for SM ranges on each device preset.
//
// Usage:
//
//	slateoccupancy -threads 256 -regs 32 -smem 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"slate/gpu"
	"slate/internal/smsim"
)

func main() {
	threads := flag.Int("threads", 256, "threads per block")
	regs := flag.Int("regs", 0, "registers per thread")
	smem := flag.Int("smem", 0, "shared memory bytes per block")
	flag.Parse()

	shape := gpu.BlockShape{Threads: *threads, RegsPerThread: *regs, SharedMemBytes: *smem}
	fmt.Printf("block: %d threads (%d warps), %d regs/thread, %d B smem\n\n",
		shape.Threads, shape.Warps(), shape.RegsPerThread, shape.SharedMemBytes)

	exit := 0
	for _, dev := range gpu.Devices() {
		resident := dev.ResidentBlocks(shape)
		if resident == 0 {
			fmt.Printf("%-32s block shape does not fit\n", dev.Name)
			exit = 1
			continue
		}
		occupancy := smsim.Occupancy(dev.SM, shape)
		fmt.Printf("%-32s %2d resident blocks/SM, %3.0f%% occupancy\n",
			dev.Name, resident, occupancy*100)
		fmt.Printf("%-32s Slate workers: full=%d", "", dev.MaxWorkers(shape, dev.NumSMs))
		for _, frac := range []int{2, 3} {
			sms := dev.NumSMs / frac
			fmt.Printf("  1/%d-device(%d SMs)=%d", frac, sms, dev.MaxWorkers(shape, sms))
		}
		fmt.Println()
	}
	os.Exit(exit)
}
