package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"

	"slate/harness"
)

// fig7Seed1Digest is the SHA-256 of Render()+CSV() of the Fig. 7 sweep at
// seed 1, loop 1 s. A change meant only to speed the simulator up must leave
// every simulated statistic identical, so it must leave this alone; a change
// to the model updates it on purpose.
const fig7Seed1Digest = "a006d11690dece14cb6f150f83755ebc58afe4a9f44a0f66204d9f1bd43f3594"

// paperSlateVsMPS is the paper's headline: Slate improves mean application
// throughput over MPS by 11 % across the 15 pairings.
const paperSlateVsMPS = 0.11

// cellsPerSweep is the unit of work of a sweep: 15 pairings × 3 schedulers.
const cellsPerSweep = 45

// harnessConfig is what `slatebench -exp fig7 -loop 1` gives a user today:
// both worker knobs at NumCPU. scale shrinks the simulated loop for tests.
func harnessConfig(cfg config) harness.Config {
	return harness.Config{
		LoopSeconds: 1 / float64(cfg.scale),
		Seed:        cfg.seed,
		Parallel:    runtime.NumCPU(),
		SimWorkers:  runtime.NumCPU(),
	}
}

// newHarness builds a cold harness. At test scale the trace model is capped
// too, since model build is most of a cold sweep.
func newHarness(cfg config, hc harness.Config) *harness.Harness {
	h := harness.New(hc)
	if cfg.scale > 1 {
		h.Model.MaxAccesses = 1_000_000 / cfg.scale
	}
	return h
}

// sweep runs Fig7 on h and returns the result with everything a user reads
// from it: the rendered table and the CSV.
func sweep(h *harness.Harness, tr *tracer, root, op int) (*harness.Fig7Result, string, error) {
	s := tr.begin("harness.Fig7", root, op)
	res, err := h.Fig7()
	tr.end(s)
	if err != nil {
		return nil, "", err
	}
	s = tr.begin("Fig7Result.Render+CSV", root, op)
	out := res.Render() + res.CSV()
	tr.end(s)
	return res, out, nil
}

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// simErrPP is |simulated Slate-vs-MPS mean gain − the paper's +11 %| in
// percentage points: simulated, host-independent and exactly repeatable.
func simErrPP(res *harness.Fig7Result) float64 {
	d := (res.SlateVsMPS - paperSlateVsMPS) * 100
	if d < 0 {
		d = -d
	}
	return d
}

// setupFig7 constructs the harness and runs one untimed cold sweep, whose
// render is the golden every timed sweep must match byte for byte. warm keeps
// that harness (model, profiler and solo caches hot) for the window; cold
// throws it away and builds a fresh one per sweep.
func setupFig7(cfg config, warm bool) (*driver, error) {
	hc := harnessConfig(cfg)
	h := newHarness(cfg, hc)
	res, golden, err := sweep(h, nil, -1, -1)
	if err != nil {
		return nil, fmt.Errorf("set-up sweep: %w", err)
	}
	d := &driver{
		unit:       "cell",
		unitsPerOp: cellsPerSweep,
		minOps:     cfg.floor.sweeps,
		op: func(i int, tr *tracer, root int) error {
			hh := h
			if !warm {
				s := tr.begin("harness.New", root, i)
				hh = newHarness(cfg, hc)
				tr.end(s)
			}
			_, out, err := sweep(hh, tr, root, i)
			if err != nil {
				return err
			}
			return checkRender(out, golden)
		},
		finish: func() []error {
			if cfg.seed == 1 && cfg.scale == 1 && digest(golden) != fig7Seed1Digest {
				return []error{fmt.Errorf("seed-1 render digest %s differs from the committed %s", digest(golden), fig7Seed1Digest)}
			}
			return nil
		},
		describe: func() string {
			return fmt.Sprintf("render_sha256=%s slate_vs_mps=%+.4f%% slate_vs_cuda=%+.4f%% sim_err_pp=%.4f",
				digest(golden), res.SlateVsMPS*100, res.SlateVsCUDA*100, simErrPP(res))
		},
	}
	return d, nil
}

// checkRender is the fig7 output check: a sweep's bytes must equal the
// set-up sweep's.
func checkRender(got, golden string) error {
	if got != golden {
		return errors.New("render differs from the set-up sweep's")
	}
	return nil
}
