// The fleetload experiment: gray-failure tolerance at 100k-session scale.
// It drives two legs, each a three-member fleet serving `-fleet-sessions`
// lightweight concurrent sessions:
//
//   - baseline: every member healthy;
//   - degraded: one member is made gray (fault.Degrade: seeded per-op
//     stalls plus flaky drops — it still answers every ping), the
//     latency-accrual SlowDetector must eject it from placement, the whole
//     session storm rides the two healthy members under a daemon-wide
//     admission cap with deliberate overload bursts (backpressure sheds
//     plus deterministic pre-expired deadline sheds), and after recovery
//     the member must be re-admitted — all visible as structured events.
//
// Invariants, audited in-run (any violation is an error, not a statistic):
// zero starved sessions (every session's work eventually completes — the
// aging override guarantees shedding cannot starve), exactly-once
// accounting (fleet-wide executions equal successful launches exactly; a
// shed launch never ran), ejection and re-admission both observed, and no
// leaked goroutines after teardown. Every compared column is a deterministic
// count or boolean, so the runner's double run must reproduce them; the one
// timing-dependent count (how many backpressure sheds the storm absorbed) is
// printed only.
package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/client"
	"slate/internal/fault"
	"slate/internal/fleet"
	"slate/internal/leakcheck"
)

const (
	// flDegraded is the member made gray in the degraded leg.
	flDegraded = "gpu2"
	// flBurstTarget takes the overload burst (a healthy member: the burst
	// exercises the shed, not the gray link).
	flBurstTarget = "gpu0"
	// flMaxPending is each daemon's accepted-unfinished launch cap.
	flMaxPending = 128
	// flBurstClients is the concurrent burst width. The burst arrives while
	// gated launches hold the target at flMaxPending, so every one of these
	// clients is shed at least once before anything is admitted.
	flBurstClients = 256
	// flExpiredProbes is how many deterministic pre-expired launches the
	// degraded leg sends: a 1ns launch deadline has always passed by
	// admission time, so exactly this many EXPIRED sheds are observed.
	flExpiredProbes = 64
	// flSessionBound is how long one session may retry shed launches before
	// it counts as starved.
	flSessionBound = 60 * time.Second
	// flTickBound bounds the detection/readmission tick loops.
	flTickBound = 400
)

// flLegStats is one leg's outcome.
type flLegStats struct {
	completed    int // sessions whose work fully completed
	launches     int // successful (acked and synced) launches, total
	starved      int // sessions that never completed within flSessionBound
	expiredShed  int // deterministic pre-expired admission sheds observed
	bpSheds      int // backpressure sheds observed (timing-dependent count)
	runs         int // fleet-wide executions of the leg's kernel
	ejected      bool
	readmitted   bool
	leakFree     bool
	slowActions  map[string]bool // slow-event actions observed (eject/readmit)
	degradeSeen  map[string]bool // degrade-event actions observed (on/off)
	routedToGray int             // sessions placed on the degraded member (must be 0)
}

// fleetLoad is the scenario at a session count: the two legs as its cells,
// one seed. The columns from ejected on belong to the degraded leg alone.
func fleetLoad(sessions int) *scenario {
	if sessions <= 0 {
		sessions = 100_000
	}
	return &scenario{
		name: "fleetload",
		title: fmt.Sprintf("Fleet load: members=%d sessions=%d burst=%d expired_probes=%d max_pending=%d",
			fleetMembers, sessions, flBurstClients, flExpiredProbes, flMaxPending),
		keys: []string{"leg"},
		cols: []column{{name: "completed"}, {name: "launches"}, {name: "starved"}, {name: "exactly_once"}, {name: "leak_free"},
			{name: "ejected"}, {name: "readmitted"}, {name: "expired_shed"}, {name: "backpressure_shed"},
			{name: "routed_to_gray"}, {name: "events"}, {name: "sheds", printedOnly: true}},
		seeds: 1,
		cells: func(seed int64) []cell {
			var cells []cell
			for _, leg := range []string{"baseline", "degraded"} {
				cells = append(cells, cell{key: []string{leg}, leg: func() (row, error) {
					st, err := fleetLoadLeg(seed, sessions, leg == "degraded")
					vals := []any{st.completed, st.launches, st.starved, st.runs == st.launches, st.leakFree}
					if leg == "degraded" {
						events := fmt.Sprintf("slow_eject=%v slow_readmit=%v degrade_on=%v degrade_off=%v",
							st.slowActions["eject"], st.slowActions["readmit"], st.degradeSeen["on"], st.degradeSeen["off"])
						vals = append(vals, st.ejected, st.readmitted, st.expiredShed, st.bpSheds > 0, st.routedToGray, events, st.bpSheds)
					}
					return row{vals: vals}, err
				}})
			}
			return cells
		},
		upheld: "zero starved sessions, exactly-once accounting, gray member ejected and re-admitted",
	}
}

// flWorkers bounds in-flight session operations: enough to keep every core
// and both healthy members' executors saturated, without 100k simultaneous
// in-flight launches defeating the admission cap's purpose.
func flWorkers() int {
	w := 32 * runtime.NumCPU()
	if w > 128 {
		w = 128
	}
	if w < 8 {
		w = 8
	}
	return w
}

// fleetLoadLeg drives one leg end to end and audits every invariant.
func fleetLoadLeg(seed int64, sessions int, degraded bool) (*flLegStats, error) {
	st := &flLegStats{slowActions: map[string]bool{}, degradeSeen: map[string]bool{}}
	gBase := leakcheck.Snapshot()

	var evMu sync.Mutex
	sup, err := newFleet(fleet.Config{
		HeartbeatEvery: 50 * time.Millisecond,
		SlowWindow:     16,
		SlowMinSamples: 4,
		SlowRecover:    3,
		Logf: func(line string) {
			kind, fields, ok := fleet.ParseEvent(line)
			if !ok {
				return
			}
			evMu.Lock()
			if kind == "slow" && fields["member"] == flDegraded {
				st.slowActions[fields["action"]] = true
			}
			if kind == "degrade" && fields["member"] == flDegraded {
				st.degradeSeen[fields["action"]] = true
			}
			evMu.Unlock()
		},
	}, "", nil)
	if err != nil {
		return st, err
	}
	for _, m := range sup.Members() {
		// Daemon-wide overload shed: past the cap, admission refuses with
		// BACKPRESSURE, except for a session already shed past the aging
		// bound. Set before any traffic.
		m.Srv().MaxTotalPending = flMaxPending
	}

	// Prime: enough heartbeat rounds that every member's latency window
	// holds SlowMinSamples real round-trips.
	now := time.Now()
	for i := 0; i < 6; i++ {
		sup.Tick(now)
		now = now.Add(50 * time.Millisecond)
	}

	legTag := "base"
	if degraded {
		legTag = "degr"
	}
	// One name per leg: every session launches the same kernel, so the
	// compile caches stay warm and fleet-wide executions are countable with
	// one Exec.Runs key.
	kernel := kernelName("fl", legTag, seed)

	if degraded {
		// Make gpu2 gray: persistent seeded stalls plus flaky drops — it
		// still answers every ping, just slowly and unreliably. The phi
		// detector sees nothing terminal; the SlowDetector must.
		deg := fault.NewDegrade(fault.DegradeConfig{
			Seed: seed, StallProb: 0.9, StallMin: 5 * time.Millisecond,
			StallMax: 20 * time.Millisecond, DropProb: 0.1,
		})
		if err := sup.DegradeMember(flDegraded, deg); err != nil {
			return st, err
		}
		// Drive detection: tick until the latency accrual ejects it.
		for i := 0; i < flTickBound && !st.ejected; i++ {
			sup.Tick(now)
			now = now.Add(50 * time.Millisecond)
			for _, name := range sup.SlowSuspects() {
				if name == flDegraded {
					st.ejected = true
				}
			}
		}
		if !st.ejected {
			return st, fmt.Errorf("gray member %s never ejected after %d heartbeat rounds", flDegraded, flTickBound)
		}
		if m := sup.MemberByName(flDegraded); m.State() != fleet.StateUp {
			return st, fmt.Errorf("gray member went %v — it must stay up (alive, just slow) for this leg", m.State())
		}
	}

	// Open every session concurrently (bounded workers): Route skips the
	// ejected gray member, so the whole storm lands on healthy members.
	type sess struct {
		c      *client.Client
		member string
	}
	clients := make([]sess, sessions)
	var openErr error
	var mu sync.Mutex
	flRunWorkers(sessions, func(i int) {
		m, err := sup.Route("")
		if err == nil {
			clients[i].member = m.Name
			clients[i].c, err = openOn(m, fmt.Sprintf("fl-%s-%d", legTag, i),
				client.WithTimeout(60*time.Second), client.WithLaunchDeadline(30*time.Second))
		}
		if err != nil {
			mu.Lock()
			if openErr == nil {
				openErr = fmt.Errorf("open session %d: %w", i, err)
			}
			mu.Unlock()
		}
	})
	if openErr != nil {
		return st, openErr
	}
	for _, s := range clients {
		if degraded && s.member == flDegraded {
			st.routedToGray++
		}
	}
	if st.routedToGray > 0 {
		return st, fmt.Errorf("%d sessions routed to the ejected gray member", st.routedToGray)
	}

	if degraded {
		if err := flBurst(sup, kernel, st); err != nil {
			return st, err
		}
	}

	// Main wave: every session launches once and syncs, retrying sheds
	// (backpressure at admission, expiry at the queue head) with backoff —
	// the aging override guarantees an aged session is eventually admitted,
	// so a session that still cannot finish within the bound is starved.
	flRunWorkers(sessions, func(i int) {
		ok, sheds := flLaunchWithRetry(clients[i].c, kernel, flSessionBound, nil)
		mu.Lock()
		st.bpSheds += int(sheds)
		if ok {
			st.completed++
			st.launches++
		} else {
			st.starved++
		}
		mu.Unlock()
	})
	if st.starved > 0 {
		return st, fmt.Errorf("%d sessions starved (no completion within %v)", st.starved, flSessionBound)
	}

	// Close the storm before the audit: pending counters must settle.
	flRunWorkers(sessions, func(i int) {
		_ = clients[i].c.Close()
	})

	if degraded {
		// Recovery: turn the gray failure off and drive re-admission —
		// SlowRecover consecutive fast probes, observed via heartbeats.
		if err := sup.RecoverMember(flDegraded); err != nil {
			return st, err
		}
		for i := 0; i < flTickBound && !st.readmitted; i++ {
			sup.Tick(now)
			now = now.Add(50 * time.Millisecond)
			st.readmitted = true
			for _, name := range sup.SlowSuspects() {
				if name == flDegraded {
					st.readmitted = false
				}
			}
		}
		if !st.readmitted {
			return st, fmt.Errorf("recovered member %s never re-admitted after %d heartbeat rounds", flDegraded, flTickBound)
		}
		// And it serves again: place a session directly on it and complete
		// real work over the now-clean link.
		c, err := openOn(sup.MemberByName(flDegraded), "fl-verify", client.WithTimeout(60*time.Second))
		if err != nil {
			return st, fmt.Errorf("post-recovery: %w", err)
		}
		if err := launchNamed(c, kernel); err != nil {
			return st, fmt.Errorf("post-recovery launch: %w", err)
		}
		if err := c.Synchronize(); err != nil {
			return st, fmt.Errorf("post-recovery sync: %w", err)
		}
		if err := c.Close(); err != nil {
			return st, err
		}
		st.launches++
		st.completed++
	}

	// Exactly-once accounting: fleet-wide executions of the leg's kernel
	// must equal the successful launches exactly — a shed launch never ran,
	// a completed one ran once, nothing ran twice.
	for _, m := range sup.Members() {
		st.runs += m.Srv().Exec.Runs("src:"+kernel) + m.Srv().Exec.Runs(flPlugKernel)
	}
	if st.runs != st.launches {
		return st, fmt.Errorf("exactly-once violated: %d executions for %d successful launches", st.runs, st.launches)
	}

	if err := sup.DrainAll(30 * time.Second); err != nil {
		return st, fmt.Errorf("drain: %w", err)
	}
	// Teardown leak audit: 100k sessions' worth of conn/session goroutines
	// must all unwind.
	if err := leakcheck.Wait(gBase, 15*time.Second); err != nil {
		return st, err
	}
	st.leakFree = true

	if degraded {
		if !st.slowActions["eject"] || !st.slowActions["readmit"] {
			return st, fmt.Errorf("slow eject/readmit events missing (saw %v)", st.slowActions)
		}
		if !st.degradeSeen["on"] || !st.degradeSeen["off"] {
			return st, fmt.Errorf("degrade on/off events missing (saw %v)", st.degradeSeen)
		}
	}
	return st, nil
}

// flPlugKernel names the gated kernel that holds the burst target at its cap.
const flPlugKernel = "fl_plug"

// flPlug fills the member's daemon-wide admission cap with launches that
// block on gate, from as many in-process sessions as the per-session quota
// makes necessary. A no-op launch finishes in well under a microsecond, so a
// burst only meets a full daemon if something holds it full on purpose. The
// returned sessions are closed by the caller once the gate is open.
func flPlug(m *fleet.Member, gate <-chan struct{}) ([]*client.Client, error) {
	srv, spec := m.Srv(), oGated(flPlugKernel, gate)
	var plugs []*client.Client
	for held := 0; held < flMaxPending; {
		if len(plugs) == flMaxPending {
			return plugs, fmt.Errorf("plug stuck at %d of %d held launches", held, flMaxPending)
		}
		c, err := openOn(m, fmt.Sprintf("fl-plug-%d", len(plugs)),
			client.WithShared(srv.Registry, srv.Specs), client.WithTimeout(60*time.Second))
		if err != nil {
			return plugs, err
		}
		plugs = append(plugs, c)
		for held < flMaxPending {
			if err := c.Launch(spec, 1); errors.Is(err, client.ErrBackpressure) {
				break // this session's own quota is spent: open another
			} else if err != nil {
				return plugs, err
			}
			held++
		}
	}
	return plugs, nil
}

// flBurst drives the overload bursts against one healthy member: first the
// deterministic pre-expired probes (a 1ns launch deadline has always passed
// by admission — exactly flExpiredProbes EXPIRED sheds), then a concurrent
// burst against a daemon plugged to its admission cap: the plug is released
// once every burst client has been shed, and every client retries its shed
// launch until admitted (the aging override makes that bounded whether or not
// the plug is still in).
func flBurst(sup *fleet.Supervisor, kernel string, st *flLegStats) error {
	m := sup.MemberByName(flBurstTarget)
	if m == nil {
		return fmt.Errorf("burst target %s missing", flBurstTarget)
	}

	// Deterministic deadline sheds.
	expired := 0
	for i := 0; i < flExpiredProbes; i++ {
		c, err := openOn(m, fmt.Sprintf("fl-exp-%d", i),
			client.WithTimeout(60*time.Second), client.WithLaunchDeadline(time.Nanosecond))
		if err != nil {
			return err
		}
		lerr := launchNamed(c, kernel)
		if errors.Is(lerr, client.ErrExpired) {
			expired++
		} else {
			return fmt.Errorf("pre-expired probe %d: got %v, want ErrExpired", i, lerr)
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	st.expiredShed = expired

	// Concurrent overload: flBurstClients × one launch against a daemon held
	// at flMaxPending, all genuinely concurrent (no worker-pool bound). Every
	// launch must eventually complete (zero starved).
	gate := make(chan struct{})
	plugs, err := flPlug(m, gate)
	if err != nil {
		close(gate)
		return fmt.Errorf("plugging %s: %w", flBurstTarget, err)
	}
	var mu sync.Mutex
	var sheds int64
	var shedClients atomic.Int64
	var firstErr error
	var wg sync.WaitGroup
	burstOne := func(i int) {
		defer wg.Done()
		c, err := openOn(m, fmt.Sprintf("fl-burst-%d", i), client.WithTimeout(60*time.Second))
		if err == nil {
			shedBefore := false
			ok, s := flLaunchWithRetry(c, kernel, flSessionBound, func() {
				if !shedBefore && shedClients.Add(1) == flBurstClients {
					close(gate) // the whole burst has met the full daemon
				}
				shedBefore = true
			})
			if !ok {
				err = errors.New("burst session starved")
			}
			mu.Lock()
			sheds += s
			mu.Unlock()
			if cerr := c.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("burst client %d: %w", i, err)
			}
			mu.Unlock()
		}
	}
	wg.Add(flBurstClients)
	for i := 0; i < flBurstClients; i++ {
		go burstOne(i)
	}
	wg.Wait()
	if n := shedClients.Load(); n < flBurstClients {
		close(gate) // a client failed before it was shed: the plug must still drain
		if firstErr == nil {
			firstErr = fmt.Errorf("%d of %d burst clients were admitted by a daemon plugged to its cap of %d — the overload shed is not engaging",
				flBurstClients-n, flBurstClients, flMaxPending)
		}
	}
	for _, c := range plugs {
		if err := c.Synchronize(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("plug sync: %w", err)
		}
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("plug close: %w", err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	st.bpSheds += int(sheds)
	// The plug's launches ran exactly once too: they are in the ledger.
	st.launches += flBurstClients + flMaxPending
	st.completed += flBurstClients
	return nil
}

// flLaunchWithRetry launches the leg's kernel once and syncs, retrying
// admission backpressure and deadline expiry (both mean: the launch did NOT
// run) with a small backoff, bounded by deadline. Returns success and how
// many backpressure sheds were absorbed; onShed, when set, observes each one
// as it happens.
func flLaunchWithRetry(c *client.Client, kernel string, bound time.Duration, onShed func()) (bool, int64) {
	dead := time.Now().Add(bound)
	var sheds int64
	for time.Now().Before(dead) {
		if err := launchNamed(c, kernel); err != nil {
			if errors.Is(err, client.ErrBackpressure) {
				sheds++
				if onShed != nil {
					onShed()
				}
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if errors.Is(err, client.ErrExpired) {
				time.Sleep(time.Millisecond)
				continue
			}
			return false, sheds
		}
		serr := c.Synchronize()
		if serr == nil {
			return true, sheds
		}
		if errors.Is(serr, client.ErrExpired) {
			// Shed at the queue head: accepted but never executed —
			// relaunching cannot double-run it.
			continue
		}
		return false, sheds
	}
	return false, sheds
}

// flRunWorkers fans f(0..n-1) across a bounded worker pool.
func flRunWorkers(n int, f func(i int)) {
	workers := flWorkers()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
