// The crashchaos experiment: kill-and-restart testing for the daemon's
// crash-safe state layer. For every crash site in the fault matrix and two
// consecutive seeds, it runs a scripted client workload against a durable
// daemon with an armed crash point, lets the "process" die mid-protocol,
// and restarts over the same state directory, asserting the recovery
// contract:
//
//   - no acked launch is lost or duplicated: for every source launch whose
//     accept record is durable (or that the resuming client re-sends), the
//     executions in the second incarnation plus the durable completions
//     from the first sum to exactly one;
//   - journal replay is idempotent: two consecutive state digests of the
//     same directory are identical;
//   - a recovered profile table is byte-identical to a clean run's;
//   - drain after recovery terminates cleanly.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/fault"
	"slate/internal/journal"
	"slate/internal/kern"
	"slate/internal/profile"
)

// ccRow is what one crashchaos leg reports. Only fired is fixed by the script:
// completions journal concurrently with the serve loop, so which record the
// armed hit lands on, and with it every count below, moves from run to run.
type ccRow struct {
	fired    bool  // the armed crash point actually fired
	acked    int   // launches the first incarnation acked before dying
	replayed int   // accepted-incomplete launches recovery re-executed
	deduped  int   // duplicate sends the dedup window absorbed
	torn     int64 // torn-tail bytes replay cut from the journal
}

// crashChaos is the full matrix: every crash site, two consecutive seeds.
var crashChaos = &scenario{
	name:  "crashchaos",
	title: "Crash-chaos matrix (kill at site, restart, verify recovery)",
	keys:  []string{"site"},
	cols: []column{{name: "fired"}, {name: "acked", printedOnly: true}, {name: "replayed", printedOnly: true},
		{name: "deduped", printedOnly: true}, {name: "torn", printedOnly: true}},
	seeds: 2,
	cells: func(seed int64) []cell {
		var cells []cell
		for _, site := range fault.CrashSites() {
			cells = append(cells, cell{key: []string{site}, leg: func() (row, error) {
				var r ccRow
				var err error
				if site == fault.SiteProfileRenameMid {
					r, err = profileCrashLeg(seed)
				} else {
					r, err = journalCrashLeg(seed, site)
				}
				return row{vals: []any{r.fired, r.acked, r.replayed, r.deduped, r.torn}}, err
			}})
		}
		return cells
	},
	upheld: "all crash sites recovered: exactly-once launches, idempotent replay, clean drain",
}

// ccLaunches is the scripted workload of a journal crash leg: eight launches,
// sent one by one or as two batches of four.
const ccLaunches, ccPerBatch = 8, 4

// journalCrashLeg runs the journal and checkpoint crash sites: incarnation one
// dies at the armed site mid-workload, incarnation two recovers the same
// state directory, the client resumes, and the exactly-once ledger is
// audited per launch.
//
// The group-commit sites (journal.batch.*) submit the workload as
// OpLaunchBatch frames, so the armed site fires inside journal.AppendBatch —
// either mid-write (a torn prefix of the group: some accept records whole,
// the next frame cut, nothing acked) or post-sync (the whole group durable,
// the batch ack lost). The daemon's AppendBatch call order is deterministic
// there — accept(batch1), completions(batch1, forced by the interleaved
// Synchronize), accept(batch2), completions(batch2) — so the seed-varied hit
// walks the death across all four, and the client can hold a whole set of
// pending ops (the in-flight batch), all of which Resume must replay under
// their original IDs.
func journalCrashLeg(seed int64, site string) (ccRow, error) {
	var r ccRow
	dir, err := os.MkdirTemp("", "crashchaos")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	// Incarnation 1: durable daemon with an armed crash point. Append sites
	// arm past the session-open append so the handshake always succeeds;
	// the checkpoint site arms an early compaction (the log compacts every
	// 4 records, so later hits would need a longer script). Varying the hit
	// with the seed moves the death around the script.
	batched := site == fault.SiteJournalBatchMid || site == fault.SiteJournalBatchPost
	hit, compactEvery, proc := uint64(2+seed%3), 4, "crashchaos"
	switch {
	case batched:
		hit, compactEvery, proc = uint64(seed%4), 64, "crashchaos-batch"
	case site == fault.SiteCheckpointMid:
		hit = uint64(seed % 2)
	}
	srv1, dial1 := daemon.NewLocal(4)
	crasher := fault.NewCrasher(site, hit)
	if _, err := srv1.EnableDurability(daemon.Durability{
		Dir: dir, CompactEvery: compactEvery, Crash: crasher.Hook(), NoSync: true,
	}); err != nil {
		return r, err
	}
	cli, err := client.New(dial1(), proc, client.WithTimeout(5*time.Second))
	if err != nil {
		return r, fmt.Errorf("incarnation 1 handshake: %w", err)
	}

	names := make([]string, ccLaunches)
	for i := range names {
		names[i] = kernelName("cc", site, seed, i)
	}
	led := newLedger(names)
	workload := ccSingles
	if batched {
		workload = ccBatches
	}
	if err := workload(cli, led); err != nil {
		return r, err
	}
	if !crasher.Fired() {
		return r, fmt.Errorf("crash site never fired (armed hit %d)", hit)
	}
	led.holdPending(cli)
	r.fired = true
	r.acked = len(led.acked)
	// Let incarnation 1's teardown settle: its conns are closed, and every
	// in-flight launch either finished (journaling to a dead writer, a
	// no-op) or never will.
	waitSessions(srv1, 5*time.Second)
	_ = srv1.CloseDurability()

	// A stats-only replay first: it observes (and cuts) the torn tail the
	// crash left, before the digest passes re-read the file.
	jstats, err := journal.Replay(filepath.Join(dir, daemon.JournalFile), func(*journal.Record) error { return nil })
	if err != nil {
		return r, fmt.Errorf("journal replay: %w", err)
	}
	r.torn = jstats.TruncatedBytes
	digest, err := stableDigest(dir)
	if err != nil {
		return r, err
	}

	// Incarnation 2: recover, resume, verify.
	srv2, dial2 := daemon.NewLocal(4)
	stats, err := srv2.EnableDurability(daemon.Durability{Dir: dir, NoSync: true})
	if err != nil {
		return r, fmt.Errorf("recovery: %w", err)
	}
	r.replayed = stats.Replayed

	recovered, err := cli.Resume(func() (net.Conn, error) { return dial2(), nil }, client.RetryConfig{Attempts: 3})
	if err != nil {
		return r, fmt.Errorf("resume: %w", err)
	}
	if !recovered {
		return r, errors.New("resume reported state lost; the journal should have held this session")
	}
	if err := cli.Synchronize(); err != nil {
		return r, fmt.Errorf("post-resume sync: %w", err)
	}
	if _, err := led.audit(durableOps(digest), func(k string) int { return srv2.Exec.Runs("src:" + k) }); err != nil {
		return r, err
	}

	// Liveness after recovery: a fresh launch (a fresh batch, on the
	// group-commit sites) on the resumed session must accept and run.
	live := kernelName("cc", site, seed, 99)
	if batched {
		lb := cli.NewBatch()
		if err := lb.LaunchSource(cudaSource(live), live, kern.D1(4), kern.D1(32), 4); err != nil {
			return r, fmt.Errorf("post-recovery batch build: %v", err)
		}
		_, err = lb.Submit()
	} else {
		err = launchNamed(cli, live)
	}
	if err != nil {
		return r, fmt.Errorf("post-recovery launch: %w", err)
	}
	if err := cli.Synchronize(); err != nil {
		return r, fmt.Errorf("post-recovery sync: %w", err)
	}
	r.deduped = srv2.DedupHits()
	if err := cli.Close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}

	// Drain-after-recovery must terminate.
	if err := srv2.Drain(5 * time.Second); err != nil {
		return r, fmt.Errorf("drain after recovery: %w", err)
	}
	_ = srv2.CloseDurability()
	return r, nil
}

// ccSingles sends the workload one launch at a time.
func ccSingles(cli *client.Client, led *ledger) error {
	for i, name := range led.names {
		// A dead daemon means the simulated process died under (or before)
		// this call; the client may hold it as the pending op Resume replays.
		if err := led.launched(name, launchNamed(cli, name)); err != nil {
			return err
		}
		if i%2 == 1 {
			// Interleave syncs so some launches have durable completion
			// records when the crash lands.
			_ = cli.Synchronize()
		}
	}
	return nil
}

// ccBatches sends the workload as OpLaunchBatch frames.
func ccBatches(cli *client.Client, led *ledger) error {
	for at := 0; at < len(led.names); at += ccPerBatch {
		names := led.names[at : at+ccPerBatch]
		b := cli.NewBatch()
		for _, name := range names {
			if err := b.LaunchSource(cudaSource(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
				return fmt.Errorf("batch build %s: %v", name, err)
			}
		}
		// A daemon that died did so with the batch in flight: every item is
		// now a pending op Resume will replay.
		acks, err := b.Submit()
		if err != nil && !died(err) {
			return fmt.Errorf("batch at launch %d: unexpected %v", at, err)
		}
		for i, a := range acks {
			if a.Code == 0 {
				led.acked[names[i]] = true
			}
		}
		// Force the completion group commit between batches so the journal's
		// AppendBatch sequence is deterministic.
		_ = cli.Synchronize()
	}
	return nil
}

// profileCrashLeg runs the profile.rename.mid site: a crash between the
// durable temp write and the rename must leave the previous table intact,
// and the post-restart save must be byte-identical to a clean run's.
func profileCrashLeg(seed int64) (ccRow, error) {
	var r ccRow
	dir, err := os.MkdirTemp("", "crashchaos-prof")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	newProf := func() *profile.Profiler {
		return profile.New(device.TitanXp(),
			&engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1})
	}
	measure := func(p *profile.Profiler, extra bool) error {
		specs := []*kern.Spec{
			{Name: fmt.Sprintf("ccp-a-%d", seed), Grid: kern.D1(256), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e7, InstrPerBlock: 1e5, L2BytesPerBlock: 1e4, ComputeEff: 0.5, MemMLP: 8},
			{Name: fmt.Sprintf("ccp-b-%d", seed), Grid: kern.D1(128), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e4, InstrPerBlock: 1e5, L2BytesPerBlock: 1e7, ComputeEff: 0.5, MemMLP: 8},
		}
		if extra {
			specs = append(specs, &kern.Spec{
				Name: fmt.Sprintf("ccp-c-%d", seed), Grid: kern.D1(64), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e5, InstrPerBlock: 1e5, L2BytesPerBlock: 1e5, ComputeEff: 0.5, MemMLP: 8})
		}
		for _, s := range specs {
			if _, err := p.Get(s); err != nil {
				return err
			}
		}
		return nil
	}

	// The clean run: the bytes recovery must converge to.
	clean := newProf()
	if err := measure(clean, true); err != nil {
		return r, err
	}
	cleanPath := filepath.Join(dir, "clean.profiles")
	if err := clean.SaveFile(cleanPath, nil); err != nil {
		return r, err
	}
	cleanBytes, err := os.ReadFile(cleanPath)
	if err != nil {
		return r, err
	}

	// The crashing run: publish a first (smaller) table, then die mid-rename
	// of the second. The table on disk must still be the first one.
	path := filepath.Join(dir, "daemon.profiles")
	victim := newProf()
	if err := measure(victim, false); err != nil {
		return r, err
	}
	if err := victim.SaveFile(path, nil); err != nil {
		return r, err
	}
	before, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := measure(victim, true); err != nil {
		return r, err
	}
	crasher := fault.NewCrasher(fault.SiteProfileRenameMid, 0)
	err = victim.SaveFile(path, crasher.Hook())
	if !errors.Is(err, fault.ErrCrash) {
		return r, fmt.Errorf("crashing save returned %v, want ErrCrash", err)
	}
	r.fired = crasher.Fired()
	after, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("table vanished under a mid-rename crash: %w", err)
	}
	if !bytes.Equal(before, after) {
		return r, errors.New("mid-rename crash tore the published table")
	}

	// Restart: load what survived, re-measure, save cleanly. The result
	// must be byte-identical to the clean run.
	restarted := newProf()
	st, err := restarted.LoadFile(path)
	if err != nil {
		return r, err
	}
	if st.Quarantined != 0 || st.TruncatedTail != 0 {
		return r, fmt.Errorf("recovered table reported damage: %+v", st)
	}
	r.acked = st.Loaded
	if err := measure(restarted, true); err != nil {
		return r, err
	}
	if err := restarted.SaveFile(path, nil); err != nil {
		return r, err
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if !bytes.Equal(got, cleanBytes) {
		return r, errors.New("recovered profile table differs from a clean run's bytes")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		return r, errors.New("crashed publish left a temp file behind after recovery")
	}
	return r, nil
}
