package workloads

import (
	"math"
	"testing"

	"slate/internal/device"
	"slate/internal/engine"
)

// mrcDeviationBound is the one-pass MRC's documented per-point deviation
// from the set-associative oracle; the cache package's property tests
// assert the same bound.
const mrcDeviationBound = 0.04

// Property: for every calibrated workload pattern — the paper's five, the
// three extended apps, and the stream microbenchmark — the one-pass
// reuse-distance MRC stays within mrcDeviationBound of the legacy
// set-associative oracle at every capacity and under both schedulers.
func TestWorkloadMRCParityAgainstOracle(t *testing.T) {
	apps := append(Apps(), ExtendedApps()...)
	apps = append(apps, StreamApp())
	for _, app := range apps {
		onepass := engine.NewTraceModel(device.TitanXp())
		oracle := engine.NewTraceModel(device.TitanXp())
		oracle.LegacyMRC = true
		for _, mode := range []engine.Mode{engine.HardwareSched, engine.SlateSched} {
			sizes, got := onepass.MissRatioCurve(app.Kernel, mode, 10)
			_, want := oracle.MissRatioCurve(app.Kernel, mode, 10)
			for i := range sizes {
				if d := math.Abs(got[i] - want[i]); d > mrcDeviationBound {
					t.Errorf("%s %v @ %d KiB: one-pass %.4f vs oracle %.4f (Δ %.4f > %.3f)",
						app.Code, mode, sizes[i]>>10, got[i], want[i], d, mrcDeviationBound)
				}
			}
		}
	}
}
