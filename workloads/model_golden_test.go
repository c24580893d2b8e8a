package workloads

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"slate/internal/device"
	"slate/internal/engine"
)

// updateModelGolden rewrites testdata/model_golden.txt from the current
// model. The file pins what engine.ModelVersion names, so regenerate it only
// in a change that also bumps ModelVersion.
var updateModelGolden = flag.Bool("update-model-golden", false, "rewrite testdata/model_golden.txt")

const modelGoldenPath = "testdata/model_golden.txt"

// modelGolden renders math.Float64bits of every MissRatioCurve point and of
// MeanRunBytes for every Apps() kernel under both schedulers (Slate at the
// default task size 10) at trace-model seeds 1 and 7, one value a line.
func modelGolden() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# model_version %d: seed app mode point float64bits\n", engine.ModelVersion)
	for _, seed := range []int64{1, 7} {
		for _, app := range Apps() {
			m := engine.NewTraceModel(device.TitanXp())
			m.Seed = seed
			for _, mode := range []engine.Mode{engine.HardwareSched, engine.SlateSched} {
				sizes, miss := m.MissRatioCurve(app.Kernel, mode, 10)
				for i, size := range sizes {
					fmt.Fprintf(&b, "%d %s %v %d %016x\n", seed, app.Code, mode, size, math.Float64bits(miss[i]))
				}
				run := m.MeanRunBytes(app.Kernel, mode, 10)
				fmt.Fprintf(&b, "%d %s %v runbytes %016x\n", seed, app.Code, mode, math.Float64bits(run))
			}
		}
	}
	return b.String()
}

// TestModelGoldenBitIdentical is the contract of ModelVersion 2: a model
// build may get cheaper, but every miss-ratio point and every MeanRunBytes
// stays the same float64, bit for bit, so persisted profile tables stamped
// with version 2 remain valid. The golden was generated at the commit before
// the bitmap-rank / tail-table rewrite of the model build.
func TestModelGoldenBitIdentical(t *testing.T) {
	if engine.ModelVersion != 2 {
		t.Fatalf("engine.ModelVersion = %d: the golden pins version 2; regenerate it with -update-model-golden in the change that bumps the version", engine.ModelVersion)
	}
	got := modelGolden()
	if *updateModelGolden {
		if err := os.WriteFile(modelGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(modelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("model golden line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("model golden has %d lines, want %d", len(gl), len(wl))
	}
}
