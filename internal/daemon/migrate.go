// Planned session migration: the cooperative half of the fleet's re-homing
// machinery. Where adoption rescues sessions from a *fenced, dead* member by
// reading its state-dir off disk, migration moves them off a *live,
// quiesced* member through the same loop (rehome, adopt.go), one durable
// step at a time:
//
//  1. the destination journals a KindSessionAdopt record (the adopted copy
//     is durable on the destination FIRST), then
//  2. the source journals a KindSessionMigrate tombstone (the session is
//     no longer recoverable here).
//
// That order is what makes every crash window safe. Die before step 1 and
// the session is intact on the source — failure-style fence-adopt recovers
// it. Die between the steps and the session is durable on BOTH members; the
// supervisor's fallback fence-adopts the source onto the SAME destination,
// where the token conflict is detected and the source's stale copy skipped,
// so the session still has exactly one home and exactly-once accounting.
// The reverse order would have a crash window that loses the session
// entirely.
//
// The caller must quiesce the source first (Server.Drain's polite phase):
// with every session detached and every accepted launch completed, the
// durable image is a consistent snapshot at a launch boundary.
package daemon

import (
	"errors"
	"fmt"
	"sort"

	"slate/internal/journal"
)

// MigrateSessions cooperatively hands every resumable session on this
// (drained, durable) daemon to dst. Both daemons must be durable; the
// caller must have quiesced this one first (Drain), so sessions sit at a
// launch boundary with no attached transports. note, when non-nil, is
// called with each token as its handoff becomes durable on the destination
// — the fleet layer uses it for per-session lifecycle events.
//
// On error the migration stops mid-list: sessions already handed off live
// on dst (and are tombstoned here); the rest still live here, recoverable
// by a failure-style fence-adopt onto the same dst.
func (s *Server) MigrateSessions(dst *Server, note func(token uint64)) (*RehomeStats, error) {
	if s.durable == nil || dst == nil || dst.durable == nil {
		return nil, errors.New("daemon: migration requires durability on both ends (EnableDurability first)")
	}
	if dst == s {
		return nil, errors.New("daemon: cannot migrate sessions onto the same daemon")
	}
	// Snapshot clones under the lock; the handoff itself journals on both
	// ends and must not hold it.
	d := s.durable
	d.mu.Lock()
	victims := make([]*resumeState, 0, len(d.tab.sessions))
	for _, st := range d.tab.sessions {
		victims = append(victims, st.clone())
	}
	d.mu.Unlock()

	// Step 1, each victim durable on the destination, is the loop's; a crash
	// before it leaves the session here, untouched. Step 2 follows it here.
	return dst.rehome("migrate", victims, s.Exec.snapshotProfiles(), func(v *resumeState, dup bool) error {
		// Step 2: tombstone the source copy. Runs for conflicts too — a
		// conflict means an earlier (crashed) handoff already landed this
		// token on dst, and the stale source copy must still die.
		if err := s.journalAppend([]*journal.Record{{
			Kind: journal.KindSessionMigrate, Sess: v.Sess, Token: v.Token,
		}}); err != nil {
			return fmt.Errorf("daemon: migrate tombstone of session %x: %w", v.Token, err)
		}
		if !dup && note != nil {
			note(v.Token)
		}
		return nil
	})
}

// ResumeTokens lists the resumable sessions currently homed on this daemon,
// sorted, so the fleet can enumerate what a migration will move. Volatile
// daemons have none.
func (s *Server) ResumeTokens() []uint64 {
	if s.durable == nil {
		return nil
	}
	d := s.durable
	d.mu.Lock()
	out := make([]uint64, 0, len(d.tab.sessions))
	for tok := range d.tab.sessions {
		out = append(out, tok)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
