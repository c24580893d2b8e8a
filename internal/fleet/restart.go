// Planned live migration and rolling restarts: the cooperative counterpart
// to failover.go's failure path. Migrate quiesces a member at a launch
// boundary (drain's polite phase), hands its sessions to a destination one
// durable step at a time (destination-adopt first, source-tombstone second
// — see internal/daemon/migrate.go for the crash-window argument), and
// re-homes the moved tokens so Locate forwards clients transparently.
// A member that wedges inside the migration budget is recovered by the
// failure machinery instead: fence, adopt onto the SAME destination (where
// the token-conflict skip keeps double-durable sessions single-homed),
// tombstone. RollingRestart chains this across the fleet one member at a
// time behind a health gate, so a full upgrade never leaves the fleet
// without quorum and no client ever observes more than a re-homing.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"slate/internal/daemon"
)

// errMigrateFellBack reports that a planned migration could not complete
// cooperatively (the source wedged past its budget or died mid-handoff) and
// was recovered by failure-style fence-adopt instead. The sessions are safe
// on the destination and re-homed; only the cooperative path failed.
var errMigrateFellBack = errors.New("MIGRATE_FELL_BACK: planned migration recovered by fence-adopt")

// Migrate cooperatively moves every session on src to dst: mark src
// draining, quiesce it within budget (drain's polite phase — sessions
// settle at a launch boundary), hand the durable images over, tombstone the
// source copies, and re-home the tokens so Locate forwards clients with
// ErrRehomed. If src wedges (drain exceeds budget) or dies mid-handoff, the
// failure machinery takes over — fence-adopt onto the same dst — and the
// returned error wraps errMigrateFellBack; session safety is identical,
// only the "source stays cleanly restartable" property is lost.
//
// Per-session lifecycle is emitted as structured events:
//
//	event=migrate member=<src> dst=<dst> phase=begin|handoff|done|fallback token=<tok>
func (s *Supervisor) Migrate(srcName, dstName string, budget time.Duration) (*daemon.RehomeStats, error) {
	src := s.MemberByName(srcName)
	dst := s.MemberByName(dstName)
	if src == nil || dst == nil {
		return nil, fmt.Errorf("fleet: migrate %s → %s: unknown member", srcName, dstName)
	}
	if src == dst {
		return nil, fmt.Errorf("fleet: migrate %s → %s: source and destination are the same member", srcName, dstName)
	}
	if budget <= 0 {
		budget = 5 * time.Second
	}
	s.mu.Lock()
	if src.state == StateDown {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: migrate %s → %s: source is down (use Failover)", srcName, dstName)
	}
	if src.stateDir != "" && (dst.state != StateUp || dst.stateDir == "") {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: migrate %s → %s: destination must be an up, durable member: %w", srcName, dstName, errFleetUnavailable)
	}
	src.state = stateDraining
	srcSrv, dstSrv := src.srv, dst.srv
	s.mu.Unlock()

	tokens := srcSrv.ResumeTokens()
	for _, tok := range tokens {
		s.emit("migrate", "member", srcName, "dst", dstName, "phase", "begin", "token", Fmt(tok))
	}

	s.emit("drain", "member", srcName, "phase", "begin")
	derr := srcSrv.Drain(budget)
	s.emit("drain", "member", srcName, "phase", "done", "ok", Fmt(derr == nil))
	if derr != nil {
		// Wedged inside the budget: sessions never quiesced. Hand the member
		// to the failure machinery.
		return nil, s.migrateFallback(src, dst, tokens, fmt.Errorf("source wedged: %w", derr))
	}
	if src.stateDir == "" {
		// A volatile member has no durable sessions to move; the drain alone
		// is the whole migration.
		return &daemon.RehomeStats{}, nil
	}

	stats, err := srcSrv.MigrateSessions(dstSrv, func(tok uint64) {
		s.emit("migrate", "member", srcName, "dst", dstName, "phase", "handoff", "token", Fmt(tok))
	})
	if err != nil {
		// Died mid-handoff (e.g. a crash injected into either journal).
		// Sessions already handed off are durable on dst; the rest are
		// recovered by fencing the source and adopting onto the SAME dst,
		// where already-moved tokens are skipped as conflicts.
		return stats, s.migrateFallback(src, dst, tokens, err)
	}
	s.mu.Lock()
	for _, tok := range stats.Tokens {
		s.rehome[tok] = dst.Name
	}
	s.mu.Unlock()
	for _, tok := range stats.Tokens {
		s.emit("migrate", "member", srcName, "dst", dstName, "phase", "done", "token", Fmt(tok))
	}
	s.emit("migrated", "member", srcName, "dst", dstName, "ok", "true",
		"sessions", Fmt(stats.Sessions), "dedup_ops", Fmt(stats.DedupOps),
		"replayed", Fmt(stats.Replayed), "lost", Fmt(stats.Lost), "conflicts", Fmt(stats.Conflicts))
	return stats, nil
}

// migrateFallback recovers a failed cooperative migration with the failure
// machinery: fence the source, adopt its remaining durable state onto the
// SAME destination the migration was targeting. Targeting the same member
// matters — a crash between destination-adopt and source-tombstone leaves a
// session durable on both ends, and only adoption onto that destination
// resolves the conflict by skipping the stale source copy.
func (s *Supervisor) migrateFallback(src, dst *Member, tokens []uint64, cause error) error {
	s.mu.Lock()
	src.state = StateDown
	s.mu.Unlock()
	for _, tok := range tokens {
		s.emit("migrate", "member", src.Name, "dst", dst.Name, "phase", "fallback", "token", Fmt(tok))
	}
	s.fence(src)
	// adoptInto re-homes the tokens it adopts, but a session handed off
	// before the crash is a conflict there — already durable on dst, absent
	// from the adopt stats. Once the adopt succeeds every session the source
	// homed is on dst, one way or the other, so it re-homes the full
	// pre-drain set too.
	if err := s.adoptInto(src, dst, tokens); err != nil {
		return fmt.Errorf("fleet: migrate %s → %s: fallback fence-adopt failed: %w (after %v)", src.Name, dst.Name, err, cause)
	}
	return fmt.Errorf("fleet: migrate %s → %s: %w: %v", src.Name, dst.Name, errMigrateFellBack, cause)
}

// restartMember replaces the member's daemon instance with a fresh
// incarnation over the same state directory. The caller must have moved the
// sessions off first (Migrate or fence-adopt): a clean source's journal
// carries session-migrate tombstones, a fenced one's files were moved to
// adopted/, so either way the new incarnation recovers zero sessions (warm
// kernel profiles do survive the restart). Each incarnation mints resume
// tokens from a generation-salted seed — the fresh daemon's session IDs
// restart at 1, and without the salt its first token would collide with a
// live session it minted in a previous life, now homed elsewhere.
func (s *Supervisor) restartMember(m *Member, version uint32) error {
	old := m.server()
	_ = old.CloseDurability() // idempotent; already closed on the fallback path
	s.mu.Lock()
	m.gen++
	gen := m.gen
	s.mu.Unlock()

	srv := daemon.NewServer(m.budget)
	srv.TokenSeed = tokenSeedFor(fmt.Sprintf("%s#gen%d", m.Name, gen))
	srv.ProtocolVersion = version
	if m.dur != nil {
		stats, err := srv.EnableDurability(*m.dur)
		if err != nil {
			return fmt.Errorf("fleet: restart %s: durability: %w", m.Name, err)
		}
		s.emit("member-recovered", "member", m.Name,
			"sessions", Fmt(stats.Sessions), "replayed", Fmt(stats.Replayed), "lost", Fmt(stats.Lost))
	}
	s.mu.Lock()
	m.srv = srv
	m.det = newDetector(defaultWindow, defaultMinStd)
	m.primed = false
	m.load = 0
	// The new incarnation's ping sequence restarts at 1, and its latency
	// history is its own: reset the staleness guard and the slow accrual so
	// the old daemon's figures cannot shadow the fresh one's.
	m.loadSeq = 0
	m.lat = newSlowDetector(s.cfg.SlowWindow)
	m.slow = false
	m.slowOK = 0
	// state stays as-is (draining/down) until the health gate promotes it.
	s.mu.Unlock()
	return nil
}

// The post-restart health gate: gateAttempts ping probes, gateEvery apart,
// before the restart is declared failed.
const (
	gateAttempts = 500
	gateEvery    = 2 * time.Millisecond
)

// RollingRestartOptions shapes one RollingRestart pass.
type RollingRestartOptions struct {
	// Budget is each member's migration budget — the polite-drain window
	// before the wedge fallback (default 5s).
	Budget time.Duration
	// Version is the protocol version every restarted incarnation speaks
	// (0 = this build's ipc.ProtocolVersion). Restarting with a different
	// version makes the fleet refuse skewed Hello/Resume handshakes.
	Version uint32
	// BeforeGate, when set, runs after each member's restart and before
	// its health gate — the hook where a chaos harness heals an injected
	// partition so the gate can pass.
	BeforeGate func(m *Member)
	// AfterMember, when set, runs after each member passes its health gate
	// — the hook where a load harness verifies mid-restart service.
	AfterMember func(m *Member)
}

// RollingRestart restarts every live member, one at a time: migrate the
// member's sessions to a healthy peer, swap in a fresh daemon incarnation
// (speaking opts.Version), and hold the fleet until the phi-accrual health
// gate sees the new incarnation answering heartbeats before touching the
// next member. A member that wedges mid-migration is recovered by
// fence-adopt (same invariants) and still restarted. Clients never see more
// than a re-homing: Locate forwards them and Resume reattaches their
// sessions on the destination.
func (s *Supervisor) RollingRestart(opts RollingRestartOptions) error {
	if opts.Budget <= 0 {
		opts.Budget = 5 * time.Second
	}
	for _, m := range s.Members() {
		if m.State() == StateDown {
			continue // already failed over; nothing to restart
		}
		s.emit("restart", "member", m.Name, "phase", "begin", "gen", Fmt(m.Gen()))
		if m.stateDir != "" {
			dst := s.pickAdopter(m)
			if dst == nil {
				return fmt.Errorf("fleet: rolling restart of %s: no migration target: %w", m.Name, errFleetUnavailable)
			}
			if _, err := s.Migrate(m.Name, dst.Name, opts.Budget); err != nil && !errors.Is(err, errMigrateFellBack) {
				return fmt.Errorf("fleet: rolling restart of %s: %w", m.Name, err)
			}
		} else {
			// Volatile member: nothing durable to move, just quiesce.
			s.mu.Lock()
			m.state = stateDraining
			srv := m.srv
			s.mu.Unlock()
			s.emit("drain", "member", m.Name, "phase", "begin")
			err := srv.Drain(opts.Budget)
			s.emit("drain", "member", m.Name, "phase", "done", "ok", Fmt(err == nil))
		}
		if err := s.restartMember(m, opts.Version); err != nil {
			return err
		}
		if opts.BeforeGate != nil {
			opts.BeforeGate(m)
		}
		// Health gate: the next member must not drain until this one's new
		// incarnation provably answers heartbeats.
		passed := false
		for i := 0; i < gateAttempts; i++ {
			if _, err := s.ping(m, s.cfg.PingTimeout); err == nil {
				passed = true
				break
			}
			time.Sleep(gateEvery)
		}
		if !passed {
			return fmt.Errorf("fleet: rolling restart of %s: health gate failed after %d probes: %w",
				m.Name, gateAttempts, errFleetUnavailable)
		}
		// The gate proved liveness; prime the fresh detector's history and
		// promote the member so it is placeable again.
		now := time.Now()
		s.mu.Lock()
		m.det.Prime(s.cfg.HeartbeatEvery, now)
		m.det.Heartbeat(now)
		m.primed = true
		m.state = StateUp
		s.mu.Unlock()
		s.emit("health", "member", m.Name, "state", "up", "phi", "0.00")
		s.emit("restart", "member", m.Name, "phase", "done", "gen", Fmt(m.Gen()))
		if opts.AfterMember != nil {
			opts.AfterMember(m)
		}
	}
	return nil
}
