// The script pieces every chaos scenario shares: the one launch shape, the
// kernel naming that makes each launch countable, the three-member fleet, the
// idempotent state digest, and the exactly-once ledger.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fleet"
	"slate/internal/kern"
)

// observed is the row of a named invariant: what the script observed, and
// whether that upholds it.
func observed(ok bool, format string, args ...any) (row, error) {
	r := row{vals: []any{fmt.Sprintf(format, args...)}}
	if !ok {
		return r, errors.New("invariant violated")
	}
	return r, nil
}

// invariant is one row of a scenario whose cells are named checks over one
// script run per seed (faults, overload), not legs of their own.
type invariant[R any] struct {
	name  string
	check func(R) (row, error)
}

// invariantCells makes each invariant a cell over the result of script, which
// runs once, when the first leg asks for it.
func invariantCells[R any](script func() (R, error), invs []invariant[R]) []cell {
	once := sync.OnceValues(script)
	cells := make([]cell, len(invs))
	for i, inv := range invs {
		cells[i] = cell{key: []string{inv.name}, leg: func() (row, error) {
			res, err := once()
			if err != nil {
				return row{}, err
			}
			return inv.check(res)
		}}
	}
	return cells
}

// kernelName joins its parts into a CUDA identifier, so every scripted launch
// is countable on its own: kernelName("cc", "journal.append.pre", 1, 3) is
// cc_journal_append_pre_1_3.
func kernelName(parts ...any) string {
	name := strings.ReplaceAll(fmt.Sprintln(parts...), " ", "_")
	return strings.NewReplacer(".", "_", "-", "_", "\n", "").Replace(name)
}

// cudaSource wraps a kernel name in minimal CUDA source the injection
// pipeline accepts.
func cudaSource(name string) string {
	return fmt.Sprintf("__global__ void %s(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }", name)
}

// launcher is a client session or a fleet session.
type launcher interface {
	LaunchSourceDegraded(source, kernel string, grid, block kern.Dim3, taskSize int) ([]string, bool, error)
}

// launchNamed sends the one launch shape every scripted session uses: the
// minimal kernel called name, four blocks of 32 threads.
func launchNamed(l launcher, name string) error {
	_, _, err := l.LaunchSourceDegraded(cudaSource(name), name, kern.D1(4), kern.D1(32), 4)
	return err
}

// openOn opens a client session on one fleet member, over a transport of its
// own.
func openOn(m *fleet.Member, proc string, opts ...client.Option) (*client.Client, error) {
	nc, err := m.Dial()()
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", m.Name, err)
	}
	c, err := client.New(nc, proc, opts...)
	if err != nil {
		return nil, fmt.Errorf("session on %s: %w", m.Name, err)
	}
	return c, nil
}

// waitSessions polls until the server's live-session count reaches zero or
// the deadline passes.
func waitSessions(srv *daemon.Server, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

const fleetMembers = 3

// newFleet builds the fleet the fleet scenarios run against: gpu0..gpu2 over
// three device profiles, placed round-robin (the double run must home and
// re-home sessions identically), partitions rejecting. With a base directory
// every member is durable under it, and arm may plant a crash point in a
// member's durability before it starts.
func newFleet(cfg fleet.Config, base string, arm func(i int, dur *daemon.Durability)) (*fleet.Supervisor, error) {
	cfg.PingTimeout = 2 * time.Second
	cfg.RoundRobin = true
	sup := fleet.New(cfg)
	for i := 0; i < fleetMembers; i++ {
		spec := fleet.MemberSpec{Name: fmt.Sprintf("gpu%d", i), Profile: []string{"A100", "TitanXp", "P100"}[i]}
		if base != "" {
			spec.Durability = &daemon.Durability{Dir: filepath.Join(base, fmt.Sprintf("m%d", i)), NoSync: true}
			if err := os.MkdirAll(spec.Durability.Dir, 0o755); err != nil {
				return nil, err
			}
			arm(i, spec.Durability)
		}
		if _, err := sup.AddMember(spec); err != nil {
			return nil, err
		}
	}
	return sup, nil
}

// stableDigest digests a state directory twice and demands the same answer:
// journal replay is idempotent. The first pass may cut a torn tail, which
// must not change what the second sees.
func stableDigest(dir string) (string, error) {
	d1, err := daemon.StateDigest(dir)
	if err != nil {
		return "", fmt.Errorf("digest 1: %w", err)
	}
	d2, err := daemon.StateDigest(dir)
	if err != nil {
		return "", fmt.Errorf("digest 2: %w", err)
	}
	if d1 != d2 {
		return "", errors.New("state digest changed between consecutive replays")
	}
	return d1, nil
}

// durableOps extracts the source-launch dedup-window entries of a state
// digest (accept-time successes only): kernel name → completion durable.
func durableOps(digest string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(digest, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "op=") {
			continue
		}
		var kernel string
		var done, okCode, src bool
		for _, f := range strings.Fields(line) {
			switch {
			case strings.HasPrefix(f, "kernel="):
				kernel = strings.TrimPrefix(f, "kernel=")
			case f == "done=true":
				done = true
			case f == "code=0":
				okCode = true
			case f == "src=true":
				src = true
			}
		}
		if kernel != "" && okCode && src {
			out[kernel] = done
		}
	}
	return out
}

// ledger is what a scripted session knows about its own launches when the
// fault has landed. names[i] is the launch that carried op ID i+1.
type ledger struct {
	names   []string
	acked   map[string]bool // the daemon's ack reached the client
	synced  map[string]bool // a Synchronize returned after the ack
	pending map[string]bool // in flight when the transport died: Resume re-sends these
}

func newLedger(names []string) *ledger {
	return &ledger{names: names, acked: map[string]bool{}, synced: map[string]bool{}, pending: map[string]bool{}}
}

// died reports whether err is the scripted fault reaching the client: the
// daemon went away under the call, or before it.
func died(err error) bool {
	return errors.Is(err, client.ErrDaemonDown) || errors.Is(err, client.ErrTimeout)
}

// launched files one launch's outcome. A dead daemon is the scripted fault
// (the launch may now be pending); any other error fails the leg.
func (l *ledger) launched(name string, err error) error {
	if err == nil {
		l.acked[name] = true
	} else if !died(err) {
		return fmt.Errorf("launch %s: unexpected %v", name, err)
	}
	return nil
}

// holdPending maps the client's pending op IDs back to kernel names.
func (l *ledger) holdPending(c *client.Client) {
	for _, op := range c.PendingOps() {
		if op >= 1 && int(op) <= len(l.names) {
			l.pending[l.names[op-1]] = true
		}
	}
}

// audit is the exactly-once check. durable is the dead incarnation's digest
// and runs counts a kernel's executions everywhere else (executions on the
// dead incarnation without a durable completion died with the device). For
// every launch with a durable accept record, later executions plus the durable
// completion sum to one; a pending launch the client re-sent ran once; any
// other launch never ran. No acked launch lacks its accept record and no
// synced launch its completion. It returns how many accepted launches were
// left for the survivors to finish.
func (l *ledger) audit(durable map[string]bool, runs func(kernel string) int) (replayed int, err error) {
	for _, name := range l.names {
		n := runs(name)
		done, inJournal := durable[name]
		switch {
		case inJournal && done && n != 0, inJournal && !done && n != 1:
			return replayed, fmt.Errorf("%s: later runs=%d with durable-complete=%v, want exactly one execution", name, n, done)
		case !inJournal && l.pending[name] && n != 1:
			return replayed, fmt.Errorf("%s: re-sent pending op ran %d times, want 1", name, n)
		case !inJournal && !l.pending[name] && n != 0:
			return replayed, fmt.Errorf("%s: never accepted, yet ran %d times", name, n)
		}
		if inJournal && !done {
			replayed++
		}
		if l.synced[name] && !done {
			return replayed, fmt.Errorf("%s: synced before the fault but its completion is not durable (lost complete)", name)
		}
		if l.acked[name] && !inJournal {
			return replayed, fmt.Errorf("%s: acked but its accept record is not durable (write-ahead violated)", name)
		}
	}
	return replayed, nil
}
