// The fleetchaos experiment: failure-injection testing for the
// multi-daemon fleet layer. For every fleet member, every injected fault —
// a death at each journal crash site, an operator kill, a network
// partition — and two consecutive seeds, it runs scripted client sessions
// across a three-member fleet, murders the victim mid-workload, lets the
// phi-accrual detector (or the operator path) notice, and asserts the
// failover contract fleet-wide:
//
//   - exactly-once: for every launch the victim accepted durably, durable
//     completions on the victim plus executions on surviving members sum to
//     one — no accepted launch runs twice, anywhere;
//   - no completed launch is lost: every launch the client synced before
//     the fault is done=true in the victim's tombstoned journal;
//   - no session starves: the victim's session resumes on the adopter with
//     its original token and completes new work; surviving sessions never
//     notice; DrainAll terminates;
//   - determinism: the whole matrix, run twice in-process with the same
//     seed, reproduces every column the script fixes.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/fleet"
)

// fcFaults lists the injected fleet faults: a daemon death at each journal
// crash site, an operator-initiated kill, and a network partition.
func fcFaults() []string {
	return []string{
		fault.SiteJournalAppendPre,
		fault.SiteJournalAppendPost,
		fault.SiteCheckpointMid,
		"kill",
		"partition",
	}
}

const (
	fcVictimLaunches = 5
	fcOtherLaunches  = 3
)

// fcRow is what one fleetchaos leg reports.
type fcRow struct {
	fired    bool // the injected fault actually landed
	acked    int  // launches the victim's client had acked
	synced   int  // launches synced (completion durable) before the fault
	replayed int  // incomplete launches the adopter re-executed
}

// fleetChaos is the matrix: every member × every fault, two consecutive
// seeds. acked is printed only: a crash at an accept append races the
// victim's death against the ack of the very launch that triggered it.
var fleetChaos = &scenario{
	name:  "fleetchaos",
	title: "Fleet-chaos matrix (fault the member, detect, fail over, verify)",
	keys:  []string{"fault", "victim"},
	cols:  []column{{name: "fired"}, {name: "acked", printedOnly: true}, {name: "synced"}, {name: "replayed"}},
	seeds: 2,
	cells: func(seed int64) []cell {
		var cells []cell
		for v := 0; v < fleetMembers; v++ {
			for _, site := range fcFaults() {
				cells = append(cells, cell{key: []string{site, fmt.Sprintf("gpu%d", v)}, leg: func() (row, error) {
					r, err := fleetChaosLeg(seed, v, site)
					return row{vals: []any{r.fired, r.acked, r.synced, r.replayed}}, err
				}})
			}
		}
		return cells
	},
	upheld: "all fleet faults recovered: exactly-once fleet-wide, no lost completions, no starved session",
}

// fleetChaosLeg runs one cell: build a three-member durable fleet, place one
// session per member, run the workload, inject the fault into the victim,
// drive detection and failover, then audit every invariant.
func fleetChaosLeg(seed int64, victimIdx int, site string) (fcRow, error) {
	var r fcRow
	base, err := os.MkdirTemp("", "fleetchaos")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(base)

	// The victim gets the armed crash point (when the fault is a crash
	// site) and an aggressive compaction cadence so the checkpoint site is
	// reachable within the scripted workload.
	var crasher *fault.Crasher
	isCrashSite := site != "kill" && site != "partition"
	if isCrashSite {
		hit := uint64(3 + seed%3)
		if site == fault.SiteCheckpointMid {
			hit = uint64(seed % 2)
		}
		crasher = fault.NewCrasher(site, hit)
	}
	victimName := fmt.Sprintf("gpu%d", victimIdx)
	sup, err := newFleet(fleet.Config{HeartbeatEvery: 500 * time.Millisecond, AutoFailover: true}, base,
		func(i int, dur *daemon.Durability) {
			if i == victimIdx && crasher != nil {
				dur.Crash = crasher.Hook()
				dur.CompactEvery = 4
			}
		})
	if err != nil {
		return r, err
	}
	t0 := time.Unix(100_000, 0)
	sup.Tick(t0) // prime every detector with a healthy beat

	// One session per member, placed round-robin: client i lands on gpu<i>.
	clients := make([]*client.Client, fleetMembers)
	for i := range clients {
		m, err := sup.Route("")
		if err != nil {
			return r, err
		}
		if clients[i], err = openOn(m, fmt.Sprintf("fc-sess-%d", i), client.WithTimeout(5*time.Second)); err != nil {
			return r, err
		}
	}
	victim := sup.MemberByName(victimName)
	vc := clients[victimIdx]
	token := vc.Token()

	// Victim workload: sync after every launch, so the journal append
	// sequence (and therefore the armed crash point) is deterministic, and
	// so "synced" exactly identifies launches with durable completions.
	names := make([]string, fcVictimLaunches)
	for i := range names {
		names[i] = fcKernel(site, seed, victimIdx, i)
	}
	led := newLedger(names)
	for _, name := range names {
		// A dead daemon means the victim died under this call; Resume may
		// replay it.
		if err := led.launched(name, launchNamed(vc, name)); err != nil {
			return r, err
		}
		if serr := vc.Synchronize(); serr == nil {
			for n := range led.acked {
				led.synced[n] = true
			}
		}
	}
	// Surviving sessions run their own work, synced up front so the fault
	// cannot be blamed for anything that happens to them later.
	for i, c := range clients {
		if i == victimIdx {
			continue
		}
		for j := 0; j < fcOtherLaunches; j++ {
			name := fcKernel(site, seed, i, j)
			if err := launchNamed(c, name); err != nil {
				return r, fmt.Errorf("bystander launch %s: %v", name, err)
			}
		}
		if err := c.Synchronize(); err != nil {
			return r, fmt.Errorf("bystander sync: %v", err)
		}
	}
	r.acked, r.synced = len(led.acked), len(led.synced)

	// Inject the fault and drive detection.
	switch {
	case isCrashSite:
		if !crasher.Fired() {
			return r, errors.New("armed crash site never fired")
		}
		r.fired = true
		// The daemon died silently: only the failure detector notices.
		sup.Tick(t0.Add(700 * time.Millisecond))
		if st := victim.State(); st != fleet.StateSuspect {
			return r, fmt.Errorf("after one missed beat: state=%v, want suspect", st)
		}
		sup.Tick(t0.Add(900 * time.Millisecond))
	case site == "partition":
		if err := sup.CutMember(victimName); err != nil {
			return r, err
		}
		r.fired = true
		sup.Tick(t0.Add(900 * time.Millisecond))
	default: // operator kill: immediate fence + failover, no detection lag
		if err := sup.KillMember(victimName); err != nil {
			return r, err
		}
		r.fired = true
	}
	if st := victim.State(); st != fleet.StateDown {
		return r, fmt.Errorf("victim state=%v, want down", st)
	}

	// The session re-homed; resume it there with the original token.
	led.holdPending(vc)
	adopterName, lerr := sup.Locate(token, victimName)
	if !errors.Is(lerr, fleet.ErrRehomed) {
		return r, fmt.Errorf("Locate = %q, %v; want ErrRehomed", adopterName, lerr)
	}
	dialer := sup.NewDialer()
	recovered, err := vc.Resume(dialer.DialFor(adopterName), client.RetryConfig{Attempts: 3})
	if err != nil {
		return r, fmt.Errorf("resume at %s: %w", adopterName, err)
	}
	if !recovered {
		return r, errors.New("resume reported state lost; adoption should have carried this session")
	}
	if err := vc.Synchronize(); err != nil {
		return r, fmt.Errorf("post-failover sync: %v", err)
	}

	// Audit against the victim's tombstoned journal: exactly-once fleet-wide,
	// and no completed launch lost. Executions on the victim itself without a
	// durable completion died with the device, so only survivors count.
	digest, err := stableDigest(filepath.Join(victim.StateDir(), "adopted"))
	if err != nil {
		return r, fmt.Errorf("tombstone: %w", err)
	}
	r.replayed, err = led.audit(durableOps(digest), func(k string) int {
		runs := 0
		for _, m := range sup.Members() {
			if m.Name != victimName {
				runs += m.Srv().Exec.Runs("src:" + k)
			}
		}
		return runs
	})
	if err != nil {
		return r, err
	}

	// A healed partition must not resurrect the fenced victim.
	if site == "partition" {
		if err := sup.HealMember(victimName); err != nil {
			return r, err
		}
		if !victim.Srv().Crashed() {
			return r, errors.New("healed victim was not fenced — split brain")
		}
	}

	// No session starves: the re-homed session and every bystander complete
	// fresh work and close cleanly.
	for i, c := range clients {
		if err := launchNamed(c, fcKernel(site, seed, i, 90)); err != nil {
			return r, fmt.Errorf("liveness launch session %d: %v", i, err)
		}
		if err := c.Synchronize(); err != nil {
			return r, fmt.Errorf("liveness sync session %d: %v", i, err)
		}
		if err := c.Close(); err != nil {
			return r, fmt.Errorf("close session %d: %v", i, err)
		}
	}
	if err := sup.DrainAll(5 * time.Second); err != nil {
		return r, fmt.Errorf("drain: %v", err)
	}
	return r, nil
}

// fcKernel names one scripted launch so executions are countable per cell.
func fcKernel(site string, seed int64, member, i int) string {
	return kernelName("fc", site, seed, fmt.Sprintf("m%d", member), i)
}
