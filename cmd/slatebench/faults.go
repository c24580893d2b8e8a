// The faults experiment: a seeded chaos driver for the client/daemon
// runtime. It runs a deterministic script of hostile sessions — spurious
// OOMs, transient compiler failures, connection resets and torn frames,
// panicking kernel bodies, clients that vanish without closing — against one
// live daemon, twice with the same seed, and verifies the fault-tolerance
// contract: the daemon never crashes, every session-owned resource (shared
// buffers, orphaned kernel specs) is reclaimed, and both runs produce the
// identical failure sequence.
package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/kern"
)

// chaosConfig shapes one chaos run.
type chaosConfig struct {
	seed     int64
	sessions int
}

// chaosResult is everything a run produced that must be reproducible.
type chaosResult struct {
	faultTrace string   // the injector's fired-fault fingerprint
	outcomes   []string // one line per client-visible operation outcome
	registry   int      // live buffers after all sessions ended
	specs      int      // orphaned spec-table entries after all sessions ended
	sessions   int      // live sessions at the end (0 = clean drain)
	fallbacks  int      // vanilla-path degradations recorded by the executor
}

// chaosScript runs the deterministic hostile-session script once.
func chaosScript(cfg chaosConfig) (*chaosResult, error) {
	inj := fault.New(fault.Config{
		Seed:              cfg.seed,
		ReadDelayProb:     0.05,
		WriteResetProb:    0.04,
		WriteTruncateProb: 0.03,
		AllocFailProb:     0.15,
		CompileFailProb:   0.35,
	})
	srv, dial := daemon.NewLocal(4)
	srv.Registry.AllocHook = inj.AllocHook()
	srv.Compiler.FailHook = inj.CompileHook()

	rng := rand.New(rand.NewSource(cfg.seed))
	res := &chaosResult{}
	note := func(sess int, format string, args ...any) {
		res.outcomes = append(res.outcomes, fmt.Sprintf("s%02d %s", sess, fmt.Sprintf(format, args...)))
	}

	for s := 0; s < cfg.sessions; s++ {
		nc := inj.WrapConn(dial())
		cli, err := client.New(nc, fmt.Sprintf("chaos-%d", s),
			client.WithShared(srv.Registry, srv.Specs),
			client.WithTimeout(5*time.Second))
		if err != nil {
			note(s, "connect: %v", err)
			nc.Close()
			continue
		}

		var bufs []*client.Buffer
		for b := 0; b < 1+rng.Intn(3); b++ {
			buf, err := cli.Malloc(int64(256 << rng.Intn(4)))
			if err != nil {
				note(s, "malloc: %v", err)
				continue
			}
			bufs = append(bufs, buf)
			if err := cli.MemcpyH2D(buf, make([]byte, buf.Size())); err != nil {
				note(s, "h2d: %v", err)
			}
		}

		switch scenario := rng.Float64(); {
		case scenario < 0.25:
			// A buggy user kernel: its first block panics.
			spec := &kern.Spec{
				Name: fmt.Sprintf("chaos-panic-%d", s),
				Grid: kern.D1(8), BlockDim: kern.D1(32),
				FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
				ComputeEff: 0.5,
				Exec: func(glob int) {
					if glob == 0 {
						panic("chaos: injected kernel panic")
					}
				},
			}
			if err := cli.Launch(spec, 2); err != nil {
				note(s, "launch(panic): %v", err)
			}
		case scenario < 0.5:
			spec := &kern.Spec{
				Name: "chaos-healthy",
				Grid: kern.D1(16), BlockDim: kern.D1(32),
				FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
				ComputeEff: 0.5,
				Exec:       func(int) {},
			}
			if err := cli.Launch(spec, 2); err != nil {
				note(s, "launch(healthy): %v", err)
			}
		default:
			// A unique source kernel per session defeats the compile cache,
			// so the compiler fault site keeps rolling; compile failures
			// degrade to the vanilla path instead of failing the launch.
			src := fmt.Sprintf(
				"__global__ void k%d(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = %d.0f; }", s, s)
			_, degraded, err := cli.LaunchSourceDegraded(src, fmt.Sprintf("k%d", s),
				kern.D1(8), kern.D1(32), 4)
			switch {
			case err != nil:
				note(s, "launchSource: %v", err)
			case degraded:
				note(s, "launchSource: degraded to vanilla path")
			}
		}

		if err := cli.Synchronize(); err != nil {
			note(s, "sync: %v", err)
		}

		if rng.Float64() < 0.3 {
			// The client crashes: no frees, no close — teardown must
			// reclaim everything it owned.
			note(s, "abrupt disconnect with %d live buffers", len(bufs))
			nc.Close()
			continue
		}
		for _, b := range bufs {
			if err := cli.Free(b); err != nil {
				note(s, "free: %v", err)
			}
		}
		if err := cli.Close(); err != nil {
			note(s, "close: %v", err)
		}
	}

	// Every session's teardown (including abrupt ones) must drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.sessions = srv.Sessions()
	res.registry = srv.Registry.Len()
	res.specs = srv.Specs.Len()
	res.faultTrace = inj.Trace()
	res.fallbacks = srv.Exec.Fallbacks()
	return res, nil
}

// runFaults executes the chaos script twice with the same seed and renders
// the verdict.
func runFaults(seed int64, sessions int) (string, error) {
	if sessions <= 0 {
		sessions = 12
	}
	first, err := chaosScript(chaosConfig{seed: seed, sessions: sessions})
	if err != nil {
		return "", err
	}
	second, err := chaosScript(chaosConfig{seed: seed, sessions: sessions})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Chaos run: seed=%d sessions=%d\n\n", seed, sessions)

	kinds := map[string]int{}
	for _, e := range firstEvents(first) {
		kinds[e]++
	}
	fmt.Fprintf(&b, "injected faults: %d\n", len(firstEvents(first)))
	for _, k := range []string{"delay", "reset", "truncate", "oom", "compile-fail"} {
		if kinds[k] > 0 {
			fmt.Fprintf(&b, "  %-13s %d\n", k, kinds[k])
		}
	}
	fmt.Fprintf(&b, "client-visible outcomes: %d\n", len(first.outcomes))
	for _, o := range first.outcomes {
		fmt.Fprintf(&b, "  %s\n", o)
	}
	fmt.Fprintf(&b, "vanilla-path degradations: %d\n\n", first.fallbacks)

	type check struct {
		name string
		ok   bool
		got  string
	}
	checks := []check{
		{"daemon survived (sessions drained)", first.sessions == 0 && second.sessions == 0,
			fmt.Sprintf("%d/%d live", first.sessions, second.sessions)},
		{"buffer registry drained", first.registry == 0 && second.registry == 0,
			fmt.Sprintf("%d/%d buffers", first.registry, second.registry)},
		{"spec table drained", first.specs == 0 && second.specs == 0,
			fmt.Sprintf("%d/%d specs", first.specs, second.specs)},
		{"same seed, same fault sequence", first.faultTrace == second.faultTrace,
			fmt.Sprintf("%d vs %d events", len(firstEvents(first)), len(firstEvents(second)))},
		{"same seed, same outcomes", strings.Join(first.outcomes, "\n") == strings.Join(second.outcomes, "\n"),
			fmt.Sprintf("%d vs %d lines", len(first.outcomes), len(second.outcomes))},
	}
	failed := 0
	for _, c := range checks {
		mark := "PASS"
		if !c.ok {
			mark = "FAIL"
			failed++
		}
		fmt.Fprintf(&b, "[%s] %-36s (%s)\n", mark, c.name, c.got)
	}
	if failed > 0 {
		return b.String(), fmt.Errorf("chaos: %d invariant(s) violated", failed)
	}
	return b.String(), nil
}

// firstEvents splits a run's fault trace into its event kinds.
func firstEvents(r *chaosResult) []string {
	if r.faultTrace == "" {
		return nil
	}
	lines := strings.Split(strings.TrimSpace(r.faultTrace), "\n")
	kinds := make([]string, 0, len(lines))
	for _, l := range lines {
		if i := strings.LastIndexByte(l, ':'); i >= 0 {
			kinds = append(kinds, l[i+1:])
		}
	}
	return kinds
}
