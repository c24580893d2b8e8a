// The faults experiment: a seeded chaos driver for the client/daemon
// runtime. It runs a deterministic script of hostile sessions — spurious
// OOMs, transient compiler failures, connection resets and torn frames,
// panicking kernel bodies, clients that vanish without closing — against one
// live daemon and verifies the fault-tolerance contract: the daemon never
// crashes, every session-owned resource (shared buffers, orphaned kernel
// specs) is reclaimed, and the runner's second run with the same seed
// produces the identical fault sequence and client-visible outcomes.
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

// chaosSessions is how many hostile client sessions one chaos run scripts.
const chaosSessions = 12

// chaosResult is everything a run produced that must be reproducible.
type chaosResult struct {
	faultTrace string   // the injector's fired-fault fingerprint
	outcomes   []string // one line per client-visible operation outcome
	registry   int      // live buffers after all sessions ended
	specs      int      // orphaned spec-table entries after all sessions ended
	sessions   int      // live sessions at the end (0 = clean drain)
}

// chaosScript runs the deterministic hostile-session script once.
func chaosScript(seed int64) *chaosResult {
	inj := fault.New(fault.Config{
		Seed:              seed,
		ReadDelayProb:     0.05,
		WriteResetProb:    0.04,
		WriteTruncateProb: 0.03,
		AllocFailProb:     0.15,
		CompileFailProb:   0.35,
	})
	srv, dial := daemon.NewLocal(4)
	srv.Registry.AllocHook = inj.AllocHook()
	srv.Compiler.FailHook = inj.CompileHook()

	rng := rand.New(rand.NewSource(seed))
	res := &chaosResult{}
	note := func(sess int, format string, args ...any) {
		res.outcomes = append(res.outcomes, fmt.Sprintf("s%02d %s", sess, fmt.Sprintf(format, args...)))
	}

	for s := 0; s < chaosSessions; s++ {
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
			name := fmt.Sprintf("k%d", s)
			_, degraded, err := cli.LaunchSourceDegraded(cudaSource(name), name, kern.D1(8), kern.D1(32), 4)
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
	waitSessions(srv, 10*time.Second)
	res.sessions = srv.Sessions()
	res.registry = srv.Registry.Len()
	res.specs = srv.Specs.Len()
	res.faultTrace = inj.Trace()
	return res
}

// faultsInvariants are the scenario's rows: the contract one run of the
// script must uphold. The last two carry what must reproduce — the injector's
// fired-fault trace, the client-visible outcomes — as their detail, and the
// runner's double run is what compares it.
var faultsInvariants = []invariant[*chaosResult]{
	{"daemon survived (sessions drained)", func(r *chaosResult) (row, error) {
		return observed(r.sessions == 0, "%d live", r.sessions)
	}},
	{"buffer registry drained", func(r *chaosResult) (row, error) {
		return observed(r.registry == 0, "%d buffers", r.registry)
	}},
	{"spec table drained", func(r *chaosResult) (row, error) {
		return observed(r.specs == 0, "%d specs", r.specs)
	}},
	{"same seed, same fault sequence", func(r *chaosResult) (row, error) {
		events := strings.Fields(r.faultTrace)
		kinds := map[string]int{}
		for _, e := range events {
			kinds[e[strings.LastIndexByte(e, ':')+1:]]++
		}
		tally := fmt.Sprintf("%d injected:", len(events))
		for _, k := range []string{"delay", "reset", "truncate", "oom", "compile-fail"} {
			if kinds[k] > 0 {
				tally += fmt.Sprintf(" %s %d", k, kinds[k])
			}
		}
		return row{vals: []any{tally}, detail: events}, nil
	}},
	{"same seed, same outcomes", func(r *chaosResult) (row, error) {
		return row{vals: []any{fmt.Sprintf("%d client-visible", len(r.outcomes))}, detail: r.outcomes}, nil
	}},
}

// faults is the scenario: one script per run, the invariants above as its
// rows.
var faults = &scenario{
	name:  "faults",
	title: fmt.Sprintf("Chaos run: %d hostile sessions against one daemon", chaosSessions),
	keys:  []string{"invariant"},
	cols:  []column{{name: "observed"}},
	seeds: 1,
	cells: func(seed int64) []cell {
		return invariantCells(func() (*chaosResult, error) { return chaosScript(seed), nil }, faultsInvariants)
	},
	upheld: "daemon survived every hostile session; every buffer and spec reclaimed",
}
