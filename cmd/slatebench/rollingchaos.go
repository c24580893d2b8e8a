// The rollingchaos experiment: zero-downtime validation for planned live
// migration and rolling restarts. For every injected fault — none (the
// clean path), a daemon death at each journal crash site armed to fire at a
// migration-time append, and a network partition of the first victim — and
// two consecutive seeds, it rolls a full three-member durable fleet,
// restarting every member in sequence while fleet sessions keep launching
// through the migration windows, and asserts the planned-restart contract:
//
//   - exactly-once: every launch any session ever acked executes exactly
//     once across every daemon incarnation the leg created — completed
//     launches never re-run after a handoff, interrupted ones settle through
//     the resume replay, and the crash-window fallback (fence-adopt onto the
//     same destination) resolves double-durable sessions to a single copy;
//   - zero lost completions: no session ever resumes degraded — every
//     re-home recovers the full durable image;
//   - no starved session: every session survives the whole fleet cycle,
//     completes fresh work afterwards, and closes cleanly; DrainAll
//     terminates;
//   - clean generations: every member comes back as generation 1, up, and
//     a wedged or crashed source is recovered by fence-adopt with the same
//     invariants (the leg's verdict does not depend on the fault landing
//     cooperatively);
//   - determinism: the whole matrix, run twice in-process with the same
//     seed, renders byte-identically, and a fenced victim's tombstoned
//     journal digests identically on consecutive replays.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/fleet"
)

// rcFaults lists the injected faults: the clean path, a source death at
// each journal crash site (gated to fire only at migration-time appends),
// and a partition of the first restarted member.
func rcFaults() []string {
	return []string{
		"none",
		fault.SiteJournalAppendPre,
		fault.SiteJournalAppendPost,
		fault.SiteCheckpointMid,
		"partition",
	}
}

const rcPreLaunches = 2

// rcRow is what one rollingchaos leg reports.
type rcRow struct {
	fired    bool // the armed crash actually landed (crash sites only)
	fallback bool // the first victim was recovered by fence-adopt
}

// rollingChaos is the matrix: every fault, two consecutive seeds.
var rollingChaos = &scenario{
	name:  "rollingchaos",
	title: "Rolling-chaos matrix (migrate, restart, inject, verify — full fleet, one member at a time)",
	keys:  []string{"fault"},
	cols:  []column{{name: "fired"}, {name: "fallback"}},
	seeds: 2,
	cells: func(seed int64) []cell {
		var cells []cell
		for _, site := range rcFaults() {
			cells = append(cells, cell{key: []string{site}, leg: func() (row, error) {
				r, err := rollingChaosLeg(seed, site)
				return row{vals: []any{r.fired, r.fallback}}, err
			}})
		}
		return cells
	},
	upheld: "all rolling restarts upheld: exactly-once, zero lost completions, no starved session",
}

// rcKernel names one launch so executions are countable per cell.
func rcKernel(site string, seed int64, who string, i int) string {
	return kernelName("rc", site, seed, who, i)
}

// rollingChaosLeg runs one cell: build the fleet, place one session per
// member, keep two of them launching continuously, roll the whole fleet
// with the fault armed against the first victim, then audit.
func rollingChaosLeg(seed int64, site string) (rcRow, error) {
	var r rcRow
	base, err := os.MkdirTemp("", "rollingchaos")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(base)

	// The first member restarted (gpu0) is the fault's victim. Crash sites
	// arm against its journal behind a gate the driver flips just before the
	// roll, so the crash fires at a migration-time append — the handoff and
	// tombstone records this experiment exists to test — not during the
	// scripted warm-up workload.
	isCrashSite := site != "none" && site != "partition"
	var crasher *fault.Crasher
	var gate atomic.Bool
	sup, err := newFleet(fleet.Config{HeartbeatEvery: 500 * time.Millisecond, AutoFailover: true}, base,
		func(i int, dur *daemon.Durability) {
			if i != 0 || !isCrashSite {
				return
			}
			crasher = fault.NewCrasher(site, 0)
			hook := crasher.Hook()
			dur.Crash = func(s string) error {
				if !gate.Load() {
					return nil
				}
				return hook(s)
			}
			dur.CompactEvery = 4
			if site == fault.SiteCheckpointMid {
				// Every append compacts, so the first gated append walks
				// straight into the checkpoint crash site.
				dur.CompactEvery = 1
			}
		})
	if err != nil {
		return r, err
	}
	t0 := time.Unix(200_000, 0)
	sup.Tick(t0) // prime every detector with a healthy beat

	// One fleet session per member, placed round-robin: session i opens on
	// gpu<i>. Session 0 rides the victim and stays scripted (idle through
	// gpu0's own migration, so the armed crash deterministically lands on
	// the handoff, not a racing workload append); sessions 1 and 2 pump
	// launches continuously through every migration window.
	sessions := make([]*fleet.Session, fleetMembers)
	for i := range sessions {
		s, err := sup.OpenSession(fmt.Sprintf("rc-sess-%d", i), client.WithTimeout(5*time.Second))
		if err != nil {
			return r, fmt.Errorf("open session %d: %w", i, err)
		}
		sessions[i] = s
	}
	var launched []string // every kernel name some session acked, audited below
	for i, s := range sessions {
		for j := 0; j < rcPreLaunches; j++ {
			name := rcKernel(site, seed, fmt.Sprintf("s%d_pre", i), j)
			if err := launchNamed(s, name); err != nil {
				return r, fmt.Errorf("pre launch %s: %v", name, err)
			}
			launched = append(launched, name)
		}
		if err := s.Synchronize(); err != nil {
			return r, fmt.Errorf("pre sync session %d: %v", i, err)
		}
	}

	// Every daemon incarnation this leg will ever have: the three originals
	// now, the three restarted generations after the roll. Execution counts
	// survive on the instance that ran them, fenced or not, so summing over
	// all incarnations audits exactly-once without a blind spot.
	incarnations := make([]*daemon.Server, 0, 2*fleetMembers)
	for _, m := range sup.Members() {
		incarnations = append(incarnations, m.Srv())
	}
	victimDir := sup.MemberByName("gpu0").StateDir()

	// Sustained load: sessions 1 and 2 launch+sync in a loop until the roll
	// completes. Any wrapper error is a leg failure — the whole point is
	// that a planned restart is invisible to clients.
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		pumpMu   sync.Mutex
		pumpErrs []error
	)
	for p := 1; p < fleetMembers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := sessions[p]
			for i := 0; !stop.Load(); i++ {
				name := rcKernel(site, seed, fmt.Sprintf("p%d", p), i)
				if err := launchNamed(s, name); err != nil {
					pumpMu.Lock()
					pumpErrs = append(pumpErrs, fmt.Errorf("pump %d launch %s: %w", p, name, err))
					pumpMu.Unlock()
					return
				}
				if err := s.Synchronize(); err != nil {
					pumpMu.Lock()
					pumpErrs = append(pumpErrs, fmt.Errorf("pump %d sync %s: %w", p, name, err))
					pumpMu.Unlock()
					return
				}
				pumpMu.Lock()
				launched = append(launched, name)
				pumpMu.Unlock()
			}
		}(p)
	}

	if site == "partition" {
		// Sever the victim's transports mid-load: its drain force-close is
		// moot, its clients must re-home blind, and the health gate can only
		// pass after BeforeGate heals the link.
		if err := sup.CutMember("gpu0"); err != nil {
			return r, err
		}
	}
	gate.Store(true)
	mid := 0
	rerr := sup.RollingRestart(fleet.RollingRestartOptions{
		Budget: 60 * time.Millisecond,
		BeforeGate: func(m *fleet.Member) {
			if site == "partition" && m.Name == "gpu0" {
				_ = sup.HealMember("gpu0")
			}
		},
		AfterMember: func(m *fleet.Member) {
			// The victim-riding session completes work after every single
			// member swap, before the next one begins.
			name := rcKernel(site, seed, "s0_mid", mid)
			mid++
			if err := launchNamed(sessions[0], name); err != nil {
				pumpMu.Lock()
				pumpErrs = append(pumpErrs, fmt.Errorf("mid-roll launch after %s: %w", m.Name, err))
				pumpMu.Unlock()
				return
			}
			if err := sessions[0].Synchronize(); err != nil {
				pumpMu.Lock()
				pumpErrs = append(pumpErrs, fmt.Errorf("mid-roll sync after %s: %w", m.Name, err))
				pumpMu.Unlock()
				return
			}
			pumpMu.Lock()
			launched = append(launched, name)
			pumpMu.Unlock()
		},
	})
	stop.Store(true)
	wg.Wait()
	if rerr != nil {
		return r, fmt.Errorf("rolling restart: %w", rerr)
	}
	if len(pumpErrs) > 0 {
		return r, fmt.Errorf("a session observed the restart: %v", pumpErrs[0])
	}

	// The fault landed the way the leg intended, and the recovery mode
	// matches: crash legs fall back to fence-adopt, clean and partition legs
	// migrate cooperatively.
	victimOrig := incarnations[0]
	r.fallback = victimOrig.Crashed()
	if isCrashSite {
		if !crasher.Fired() {
			return r, errors.New("armed crash site never fired")
		}
		r.fired = true
		if !r.fallback {
			return r, errors.New("crashed source was not fenced")
		}
	} else if r.fallback {
		return r, errors.New("clean migration fell back to fence-adopt")
	}

	// Clean generations: every member rolled exactly once and is placeable.
	for _, m := range sup.Members() {
		if m.State() != fleet.StateUp {
			return r, fmt.Errorf("%s state=%v after the roll, want up", m.Name, m.State())
		}
		if m.Gen() != 1 {
			return r, fmt.Errorf("%s gen=%d after the roll, want 1", m.Name, m.Gen())
		}
		incarnations = append(incarnations, m.Srv())
	}

	// Zero lost completions and no starved session: every session kept its
	// durable identity through every re-home, completes fresh work, closes.
	for i, s := range sessions {
		if s.Degraded() {
			return r, fmt.Errorf("session %d resumed degraded — durable state lost in a planned restart", i)
		}
		name := rcKernel(site, seed, fmt.Sprintf("s%d_post", i), 0)
		if err := launchNamed(s, name); err != nil {
			return r, fmt.Errorf("post launch session %d: %v", i, err)
		}
		launched = append(launched, name)
		if err := s.Synchronize(); err != nil {
			return r, fmt.Errorf("post sync session %d: %v", i, err)
		}
		if err := s.Close(); err != nil {
			return r, fmt.Errorf("close session %d: %v", i, err)
		}
	}

	// Exactly-once across every incarnation: each acked launch ran exactly
	// once, fleet-wide, for the leg's whole lifetime. Handoffs moved the
	// dedup windows, so completed launches never re-ran on a destination;
	// interrupted ones settled through the resume replay; the crash-window
	// fallback kept double-durable sessions single-homed.
	for _, name := range launched {
		runs := 0
		for _, srv := range incarnations {
			runs += srv.Exec.Runs("src:" + name)
		}
		if runs != 1 {
			return r, fmt.Errorf("%s: ran %d times across %d incarnations, want exactly 1", name, runs, len(incarnations))
		}
	}

	// On fallback legs the victim's journal was tombstoned by the adopt;
	// digesting it twice proves replay idempotence over the fenced segment.
	if r.fallback {
		if _, err := stableDigest(filepath.Join(victimDir, "adopted")); err != nil {
			return r, fmt.Errorf("tombstone: %w", err)
		}
	}

	if err := sup.DrainAll(5 * time.Second); err != nil {
		return r, fmt.Errorf("drain: %v", err)
	}
	return r, nil
}
