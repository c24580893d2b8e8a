// Benchmarks regenerating each table and figure of the paper's evaluation.
// Custom metrics attach the reproduced headline numbers to the benchmark
// output (gains are fractions: 0.11 = 11%).
//
//	go test -bench=. -benchmem
package slate_test

import (
	"runtime"
	"sync"
	"testing"

	"slate/gpu"
	"slate/harness"
	"slate/workloads"
)

// benchHarness is shared across benchmarks: the trace-model cache dominates
// first-use cost.
var (
	benchOnce sync.Once
	benchH    *harness.Harness
)

func h() *harness.Harness {
	benchOnce.Do(func() {
		benchH = harness.New(harness.Config{LoopSeconds: 1.0})
	})
	return benchH
}

// BenchmarkFig1StreamSaturation regenerates Fig. 1: stream bandwidth vs SM
// count, saturating at the 9-SM knee.
func BenchmarkFig1StreamSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Fig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.KneeSMs), "knee-SMs")
		b.ReportMetric(r.Points[len(r.Points)-1].BandwidthGBs, "peak-GB/s")
	}
}

// BenchmarkTableIIProfiles regenerates Table II: the five workload
// profiles.
func BenchmarkTableIIProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().TableII()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Code == "MM" {
				b.ReportMetric(row.GFLOPS, "MM-GFLOP/s")
			}
		}
	}
}

// BenchmarkTableIIIGaussian regenerates Table III: GS under CUDA vs Slate
// (paper: +38% access bandwidth, +28% time).
func BenchmarkTableIIIGaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().TableIII()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Slate.AccessBW()/r.CUDA.AccessBW()-1, "bw-gain")
		b.ReportMetric(r.CUDA.Duration().Seconds()/r.Slate.Duration().Seconds()-1, "time-gain")
	}
}

// BenchmarkTableIVBSRG regenerates Table IV: the BS-RG pair under MPS vs
// Slate (paper: +30.55% throughput, +71% IPC).
func BenchmarkTableIVBSRG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().TableIV()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ThroughputGain, "throughput-gain")
		b.ReportMetric(r.IPC[1]/r.IPC[0]-1, "ipc-gain")
	}
}

// BenchmarkTableVOverheads regenerates Table V's measured overhead
// inventory (built on a full Fig. 6 run).
func BenchmarkTableVOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := h().TableV(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TaskSize regenerates Fig. 5: the task-size sweep (paper: GS
// halves at task=10; BS prefers task=1).
func BenchmarkFig5TaskSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Code == "GS" {
				b.ReportMetric(row.Seconds[0]/row.Seconds[3], "GS-task1/task10")
			}
		}
	}
}

// BenchmarkFig6SoloBreakdown regenerates Fig. 6: solo application times
// under the three schedulers with overhead breakdown (paper: GS -28%,
// comm ≈4%, inject ≈1.5%).
func BenchmarkFig6SoloBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CommFraction(), "comm-frac")
		b.ReportMetric(r.InjectFraction(), "inject-frac")
	}
}

// BenchmarkFig7Pairings regenerates Fig. 7: all 15 pairings under CUDA,
// MPS, and Slate (paper: Slate +11% mean over MPS, +35% best).
func BenchmarkFig7Pairings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SlateVsMPS, "vs-MPS-mean")
		b.ReportMetric(r.BestGain, "vs-MPS-best")
		b.ReportMetric(r.SlateVsCUDA, "vs-CUDA-mean")
	}
}

// fig7Cold runs the full Fig. 7 sweep on a fresh harness each iteration, so
// the benchmark measures the cold-cache cost the CLI user pays: slatebench
// sets both worker knobs, so both are set here. Comparing the Serial and
// Parallel variants gives the worker-pool speedup on this machine (bounded
// above by GOMAXPROCS).
func fig7Cold(b *testing.B, parallel, simWorkers int) {
	for i := 0; i < b.N; i++ {
		fresh := harness.New(harness.Config{LoopSeconds: 1.0, Parallel: parallel, SimWorkers: simWorkers})
		r, err := fresh.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SlateVsMPS, "vs-MPS-mean")
	}
}

// BenchmarkFig7SweepColdSerial is the serial baseline for the parallel
// harness: every cell runs in submission order on one goroutine.
func BenchmarkFig7SweepColdSerial(b *testing.B) { fig7Cold(b, 1, 1) }

// BenchmarkFig7SweepColdParallel8 runs the same sweep on an 8-wide worker
// pool with SimWorkers where slatebench (and benchmark/fig7.go) puts it;
// output is byte-identical (see harness/parallel_test.go), only the
// wall-clock changes.
func BenchmarkFig7SweepColdParallel8(b *testing.B) { fig7Cold(b, 8, runtime.NumCPU()) }

// BenchmarkAblations regenerates the scheduler design-choice ablation
// (policy, split, grace variants against MPS).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Ablations()
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range r.Variants {
			if v.Name == "table-i" {
				b.ReportMetric(v.Mean, "table-i-mean-gain")
			}
			if v.Name == "never-corun" {
				b.ReportMetric(v.Mean, "never-corun-mean-gain")
			}
		}
	}
}

// BenchmarkSimulatorSoloLaunch measures the simulator's raw cost for one
// solo kernel execution (engine event processing, not modeled GPU time).
func BenchmarkSimulatorSoloLaunch(b *testing.B) {
	spec := workloads.BS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.NewSimulator(nil).RunSolo(spec, gpu.HardwareSched, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticMergeComparator regenerates the related-work comparison
// (serial vs compile-time merge vs Slate).
func BenchmarkStaticMergeComparator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().StaticMerge()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Pair == "GS-RG" {
				b.ReportMetric(row.SerialSec/row.SlateSec-1, "GS-RG-slate-gain")
				b.ReportMetric(row.SerialSec/row.MergedSec-1, "GS-RG-merge-gain")
			}
		}
	}
}

// BenchmarkTriples regenerates the 3-way spatial-sharing extension.
func BenchmarkTriples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().Triples()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SlateVsMPS, "vs-MPS-mean")
	}
}

// BenchmarkCloudTrace regenerates the multi-tenant arrival-trace extension.
func BenchmarkCloudTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().CloudTrace(harness.CloudTraceConfig{Jobs: 8, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ANTT[2]/r.ANTT[1], "ANTT-slate/mps")
		b.ReportMetric(r.STP[2], "STP-slate")
	}
}

// BenchmarkExtendedPairs regenerates the extended-workload pairings.
func BenchmarkExtendedPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := h().ExtendedPairs()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Pair == "HS-RG" {
				b.ReportMetric(row.Norm[1]/row.Norm[2]-1, "HS-RG-gain")
			}
		}
	}
}
