package harness

import (
	"fmt"
	"testing"
)

// experimentOutputs renders every experiment of Experiments(), and the
// heaviest Fig. 7 cell the benchmark times, for one fresh harness, folding
// each one's rendered table, CSV and SVG into a single string so byte
// comparison covers every reported digit.
func experimentOutputs(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	h := New(cfg)
	out := map[string]string{}
	for _, e := range Experiments() {
		o, err := e.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out[e.Name] = o.Render + o.CSV + o.SVG
	}
	cell, err := h.SimBenchCell(h.HeaviestPairIndex())
	if err != nil {
		t.Fatalf("simbench-cell: %v", err)
	}
	out["simbench-cell"] = cell
	return out
}

// TestShardedExecutionBitIdentical is DESIGN.md §15's contract over the
// whole evaluation: every experiment, rendered from a serial harness
// (Parallel=1, SimWorkers=1) and from a fully parallel one (cell pool +
// sharded sub-simulations + engine fan + model build fan), must agree on
// every output byte, at two seeds. Run under -race in CI.
func TestShardedExecutionBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial := experimentOutputs(t, Config{LoopSeconds: 0.35, Seed: seed, Parallel: 1, SimWorkers: 1})
			sharded := experimentOutputs(t, Config{LoopSeconds: 0.35, Seed: seed, Parallel: 4, SimWorkers: 4})
			for name, want := range serial {
				got, ok := sharded[name]
				if !ok {
					t.Fatalf("%s missing from sharded outputs", name)
				}
				if got != want {
					t.Errorf("%s diverged between serial and sharded execution at seed %d:\n--- serial ---\n%s\n--- sharded ---\n%s",
						name, seed, want, got)
				}
			}
		})
	}
}
