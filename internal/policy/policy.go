// Package policy implements Slate's workload-aware scheduling heuristics:
// the intensity classification of §III-B2, the corun/solo decision table
// (Table I), and the ANTT multiprogram metric.
package policy

import "fmt"

// Class is a kernel's workload class. Memory intensity takes priority over
// compute intensity: a kernel with high or medium memory demand is labelled
// H_M/M_M regardless of its compute demand; only low-memory kernels are
// labelled by compute (L_C/M_C/H_C).
type Class int

// Workload classes, in Table I's ordering.
const (
	LC Class = iota // low compute, low memory
	MC              // medium compute, low memory
	HC              // high compute, low memory
	MM              // medium memory
	HM              // high memory
	numClasses
)

func (c Class) String() string {
	switch c {
	case LC:
		return "L_C"
	case MC:
		return "M_C"
	case HC:
		return "H_C"
	case MM:
		return "M_M"
	case HM:
		return "H_M"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Thresholds delimit the low/medium/high intensity bands, derived from the
// Table II profiles: RG (4.2 GF/s, 71.6 GB/s) must classify low on both
// axes, TR (568 GB/s) high-memory, MM (1525 GF/s) high-compute.
type Thresholds struct {
	// ComputeMed and ComputeHigh are GFLOP/s boundaries.
	ComputeMed, ComputeHigh float64
	// MemoryMed and MemoryHigh are GB/s boundaries of access bandwidth.
	MemoryMed, MemoryHigh float64
}

// DefaultThresholds returns the band boundaries used in the evaluation.
func DefaultThresholds() Thresholds {
	return Thresholds{ComputeMed: 100, ComputeHigh: 1000, MemoryMed: 150, MemoryHigh: 450}
}

// Classify maps a kernel profile (GFLOP/s, access GB/s) to its class.
func (t Thresholds) Classify(gflops, accessGBs float64) Class {
	switch {
	case accessGBs >= t.MemoryHigh:
		return HM
	case accessGBs >= t.MemoryMed:
		return MM
	case gflops >= t.ComputeHigh:
		return HC
	case gflops >= t.ComputeMed:
		return MC
	default:
		return LC
	}
}

// corunTable is Table I verbatim: rows are the running kernel's class,
// columns the candidate's. The table is empirical and intentionally
// asymmetric.
var corunTable = [numClasses][numClasses]bool{
	//        L_C    M_C    H_C    M_M    H_M
	LC: {true, true, false, true, true},
	MC: {true, true, false, false, true},
	HC: {false, false, false, false, true},
	MM: {true, false, true, false, false},
	HM: {true, true, false, false, false},
}

// Corun reports Table I's decision for a running kernel of class a and a
// candidate of class b.
func Corun(a, b Class) bool {
	if a < 0 || a >= numClasses || b < 0 || b >= numClasses {
		return false
	}
	return corunTable[a][b]
}

// ANTT computes the average normalized turnaround time of a set of jobs:
// mean over jobs of (turnaround under the evaluated scheduler) / (solo
// execution time). Lower is better; 1.0 is solo speed.
func ANTT(turnaround, solo []float64) float64 {
	if len(turnaround) != len(solo) || len(turnaround) == 0 {
		return 0
	}
	sum := 0.0
	for i := range turnaround {
		if solo[i] <= 0 {
			return 0
		}
		sum += turnaround[i] / solo[i]
	}
	return sum / float64(len(turnaround))
}
