package harness

import (
	"fmt"
	"testing"

	"slate/internal/kern"
	"slate/internal/traces"
)

// fig7Output renders the full Fig. 7 artifact (table + CSV) for one fresh
// harness, so byte comparison covers every reported digit.
func fig7Output(t *testing.T, cfg Config) string {
	t.Helper()
	r, err := New(cfg).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	return r.Render() + "\n" + r.CSV()
}

// TestFig7ParallelMatchesSerial is the tentpole's golden test: the full
// 15-pairing × 3-scheduler sweep on 8 workers must produce byte-identical
// output to the serial run, at two seeds. Run under -race in CI.
func TestFig7ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial := fig7Output(t, Config{LoopSeconds: 0.5, Seed: seed, Parallel: 1})
			parallel := fig7Output(t, Config{LoopSeconds: 0.5, Seed: seed, Parallel: 8})
			if serial != parallel {
				t.Fatalf("parallel Fig. 7 diverged from serial at seed %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
					seed, serial, parallel)
			}
		})
	}
}

// TestTableIVParallelMatchesSerial covers the second golden artifact at two
// seeds.
func TestTableIVParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			render := [2]string{}
			for i, par := range []int{1, 8} {
				r, err := New(Config{LoopSeconds: 0.5, Seed: seed, Parallel: par}).TableIV()
				if err != nil {
					t.Fatal(err)
				}
				render[i] = r.Render()
			}
			if render[0] != render[1] {
				t.Fatalf("parallel Table IV diverged from serial at seed %d:\n%s\nvs\n%s",
					seed, render[0], render[1])
			}
		})
	}
}

// TestHarnessRunTwiceIdempotent verifies repeated runs inside one process
// reuse the warm caches without drifting: no experiment may leave shared
// model state (cache warmth, device counters) behind that changes a rerun.
func TestHarnessRunTwiceIdempotent(t *testing.T) {
	h := New(Config{LoopSeconds: 0.5, Parallel: 4})
	out := func() string {
		f, err := h.Fig7()
		if err != nil {
			t.Fatal(err)
		}
		tiv, err := h.TableIV()
		if err != nil {
			t.Fatal(err)
		}
		return f.Render() + f.CSV() + tiv.Render()
	}
	first := out()
	second := out()
	if first != second {
		t.Fatalf("second run in the same process diverged:\n%s\nvs\n%s", first, second)
	}
}

// soloSpec builds a quick-converging kernel for the solo-cache tests.
func soloSpec(name string, blocks int, flops float64) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(128),
		FLOPsPerBlock: flops, InstrPerBlock: flops, L2BytesPerBlock: 1 << 14,
		ComputeEff: 0.5,
		Pattern:    traces.Streaming{Blocks: blocks, BytesPerBlock: 1 << 14, LineBytes: 64},
	}
}

// TestSoloCacheKeyedByContent is the regression test for the name-collision
// bug: soloKernelSec used to cache by spec.Name alone, so two kernels
// sharing a name silently reused the wrong solo time.
func TestSoloCacheKeyedByContent(t *testing.T) {
	h := New(Config{LoopSeconds: 0.5})
	small, err := h.soloKernelSec(soloSpec("twin", 240, 1e5))
	if err != nil {
		t.Fatal(err)
	}
	// Same name, 8× the work: must NOT reuse the cached time.
	big, err := h.soloKernelSec(soloSpec("twin", 1920, 1e5))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("same-name kernel with 8x blocks reused stale solo time: small=%v big=%v", small, big)
	}
	// Different name, identical content: must share the measurement.
	renamed, err := h.soloKernelSec(soloSpec("twin@7", 240, 1e5))
	if err != nil {
		t.Fatal(err)
	}
	if renamed != small {
		t.Fatalf("renamed identical kernel re-measured differently: %v vs %v", renamed, small)
	}
	entries := h.solo.Len()
	if entries != 2 {
		t.Fatalf("solo cache holds %d entries, want 2 (content-addressed)", entries)
	}
}
