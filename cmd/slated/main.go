// Command slated runs the Slate daemon on a Unix socket. Remote clients
// (framework.Dial) get the full API: buffer management, transfer commands,
// synchronization, and the source injection + runtime-compilation pipeline
// (executable Go kernels require an in-process daemon).
//
// Signals: SIGTERM and SIGINT put the daemon into drain mode — new sessions
// and new work are refused with the DRAINING error code, in-flight launches
// finish, and once every session has wound down (or the drain timeout forces
// stragglers closed) the process exits 0. A second signal aborts immediately.
//
// Usage:
//
//	slated -listen /tmp/slate.sock -budget 8 -drain-timeout 30s
//
// With -state-dir the daemon keeps a write-ahead journal and checkpoint
// there: a restart over the same directory recovers sessions (clients
// reattach via their resume tokens), replays accepted-but-incomplete source
// launches exactly once, and logs a one-line recovery summary.
//
// With -adopt-state <dir> a durable daemon additionally adopts a dead or
// drained peer's state directory at startup — the migration-destination
// half of a planned handoff: the peer's sessions resume here under their
// original tokens, each logged as `event=migrate` lifecycle lines, and the
// peer's journal and checkpoint move into <dir>/adopted/, so restarting the
// peer over <dir> recovers none of them.
//
// Every lifecycle transition (journal/recovery/listening/drain/drained) is
// logged as a single structured `event=<kind> key=value ...` line,
// parseable with fleet.ParseEvent.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slate/framework"
)

func main() {
	addr := flag.String("listen", "/tmp/slate.sock", "unix socket path")
	budget := flag.Int("budget", 8, "executor worker budget (the host 'SM pool')")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long drain waits for sessions before force-closing them")
	stateDir := flag.String("state-dir", "", "directory for the durable journal + checkpoint (empty = volatile daemon)")
	adoptState := flag.String("adopt-state", "", "dead or drained peer's state dir to adopt at startup (requires -state-dir); its sessions resume here and its journal and checkpoint move to <dir>/adopted/")
	maxPending := flag.Int("max-pending", 0, "daemon-wide accepted-unfinished launch cap; past it admission sheds with BACKPRESSURE (0 = unlimited)")
	agingBound := flag.Duration("aging-bound", 0, "how long a session may be shed continuously before it is granted one admission over the cap (0 = scheduler default)")
	flag.Parse()

	if *adoptState != "" && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "slated: -adopt-state requires -state-dir (adoption must be durable)")
		os.Exit(1)
	}

	_ = os.Remove(*addr)
	l, err := net.Listen("unix", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slated: %v\n", err)
		os.Exit(1)
	}
	defer os.Remove(*addr)

	srv := framework.NewDaemon(*budget)
	if *maxPending > 0 {
		srv.MaxTotalPending = *maxPending
		srv.AgingBound = *agingBound
		fmt.Println(loadshedEvent(*maxPending, *agingBound))
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "slated: state dir: %v\n", err)
			os.Exit(1)
		}
		stats, err := srv.EnableDurability(framework.Durability{Dir: *stateDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "slated: durability: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(journalEvent(stats.JournalPath, stats.CheckpointPath))
		fmt.Println(recoveryEvent(stats))
		if *adoptState != "" {
			as, err := srv.AdoptState(*adoptState)
			if err != nil {
				fmt.Fprintf(os.Stderr, "slated: adopt state: %v\n", err)
				os.Exit(1)
			}
			for _, tok := range as.Tokens {
				fmt.Println(migrateEvent("handoff", tok, *adoptState))
				fmt.Println(migrateEvent("done", tok, *adoptState))
			}
			fmt.Println(adoptedEvent(*adoptState, as))
		}
	}
	fmt.Println(listeningEvent(*addr, *budget))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan error, 1)
	go func() {
		s := <-sig
		fmt.Println(drainEvent(s.String(), *drainTimeout))
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "slated: second signal, aborting")
			os.Remove(*addr)
			os.Exit(1)
		}()
		drained <- srv.Drain(*drainTimeout)
		l.Close()
	}()

	err = srv.Serve(l)
	select {
	case derr := <-drained:
		// Listener closed by the drain path: a clean shutdown.
		fmt.Println(drainedEvent(derr))
		if derr != nil {
			os.Remove(*addr)
			os.Exit(1)
		}
	default:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "slated: %v\n", err)
			os.Remove(*addr)
			os.Exit(1)
		}
	}
}
