// Session re-homing: moving sessions' durable images between daemons. Two
// entry points share one loop (rehome). AdoptState is the failover half of
// the fleet design: when a member dies, the supervisor fences it (Kill) and
// asks a healthy member to adopt the victim's durable state-dir off disk.
// MigrateSessions (migrate.go) is the planned half, off a live, quiesced
// member. Either way each session's whole journal segment — token, dedup
// watermark, window, poison and loss marks — lands in the destination's own
// journal as one KindSessionAdopt record, and accepted-but-incomplete
// launches settle through the same exactly-once replay pass restart recovery
// uses. The client's resume token is the session's fleet-wide identity and
// survives the move unchanged; only the daemon-local session ID is re-minted.
package daemon

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"slate/internal/journal"
	"slate/internal/policy"
)

// RehomeStats summarizes one AdoptState or MigrateSessions call; the fleet
// supervisor reports it and uses Tokens to re-home its routing table.
type RehomeStats struct {
	// Sessions is how many resumable sessions the destination took.
	Sessions int
	// DedupOps is how many dedup-window entries moved with them.
	DedupOps int
	// Replayed is how many accepted-but-incomplete source launches the
	// destination re-executed (exactly once, fleet-wide).
	Replayed int
	// Lost is how many accepted launches could not be re-executed
	// (in-process kernels whose closures are not portable).
	Lost int
	// Conflicts is how many sessions were skipped because their token already
	// lives on the destination: an earlier adoption of the same state-dir, or
	// a retried migration after a mid-handoff crash (whose source copies are
	// still tombstoned — the destination's copy wins).
	Conflicts int
	// Profiles is how many warm kernel classifications travelled along.
	Profiles int
	// Tokens lists the re-homed sessions' resume tokens, in re-homing order.
	Tokens []uint64
}

// AdoptState re-homes every resumable session found in a dead daemon's
// state-dir into this (durable, healthy) daemon, then tombstones the dir so
// the sessions have one home. The caller must have fenced the victim first —
// Kill guarantees the victim journals nothing after the segment is read,
// which is what makes the re-executed launches exactly-once rather than
// at-least-once. Idempotent: a dir adopted before finds nothing left to
// adopt, and one whose earlier adoption died before the tombstone skips the
// tokens already here as conflicts.
func (s *Server) AdoptState(dir string) (*RehomeStats, error) {
	if s.durable == nil {
		return nil, errors.New("daemon: adoption requires durability (EnableDurability first)")
	}
	tab, _, _, err := loadDurableState(dir)
	if err != nil {
		return nil, err
	}
	victims := make([]*resumeState, 0, len(tab.sessions))
	for _, st := range tab.sessions {
		victims = append(victims, st)
	}
	stats, err := s.rehome("adopt", victims, tab.profiles, nil)
	if err != nil {
		return stats, err
	}
	if err := tombstone(dir); err != nil {
		return stats, fmt.Errorf("tombstone: %w", err)
	}
	return stats, nil
}

// rehome is the one re-homing loop, run on the destination: restore the
// travelling profiles, durably install each victim in session-ID order
// (adoptSession), and settle the adopted sessions' in-flight work through
// the one exactly-once replay path — completions journal here. after, when
// non-nil, runs once a victim is durable here (dup: it already was) and
// before the next one is touched; planned migration tombstones the source
// copy there. On error the loop stops mid-list with the stats so far.
func (s *Server) rehome(verb string, victims []*resumeState, profiles map[string]profileSnap,
	after func(v *resumeState, dup bool) error) (*RehomeStats, error) {
	stats := &RehomeStats{}
	// RestoreProfile keeps existing entries, so this daemon's own
	// measurements win on conflict.
	for name, p := range profiles {
		s.Exec.RestoreProfile(name, policy.Class(p.Class), p.SoloSec)
		stats.Profiles++
	}
	// Deterministic order: the source's session IDs.
	sort.Slice(victims, func(i, j int) bool { return victims[i].Sess < victims[j].Sess })

	var adopted []*resumeState
	for _, v := range victims {
		st, dup, err := s.adoptSession(v)
		if err != nil {
			return stats, fmt.Errorf("daemon: %s handoff of session %x: %w", verb, v.Token, err)
		}
		if after != nil {
			if err := after(v, dup); err != nil {
				return stats, err
			}
		}
		if dup {
			stats.Conflicts++
			continue
		}
		stats.Sessions++
		stats.DedupOps += len(st.Window)
		stats.Tokens = append(stats.Tokens, st.Token)
		adopted = append(adopted, st)
	}
	stats.Replayed, stats.Lost = s.replaySessions(adopted)
	return stats, nil
}

// adoptSession durably installs one victim session into this daemon under a
// fresh local session ID, keeping the resume token, and returns the session
// the record's apply created. dup reports the token already lives here
// (idempotent re-adoption).
func (s *Server) adoptSession(v *resumeState) (st *resumeState, dup bool, err error) {
	d := s.durable
	d.mu.Lock()
	_, dup = d.tab.sessions[v.Token]
	d.mu.Unlock()
	if dup {
		return nil, true, nil
	}
	// The token is the credential the client will Resume with and must
	// survive the move; the session ID is this daemon's namespace, so
	// mint a fresh one rather than collide with a local session.
	s.mu.Lock()
	s.nextSess++
	sess := s.nextSess
	s.mu.Unlock()
	if err := s.journalAppend([]*journal.Record{{
		Kind: journal.KindSessionAdopt, Sess: sess, Token: v.Token, Proc: v.Proc,
		MaxOp: v.MaxOp, Code: v.PoisonCode, Err: v.PoisonErr, Lost: v.LostErr,
		AdoptOps: v.Window,
	}}); err != nil {
		return nil, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tab.bySess[sess], false, nil
}

// tombstone moves an adopted state-dir's journal and checkpoint into an
// "adopted/" subdirectory. The sessions now live in the adopter's journal; a
// naive restart of the dead daemon over its old state-dir must find nothing
// to recover, or the same tokens would be homed twice and the same launches
// could replay on two daemons. The files survive (not deleted) for audit —
// StateDigest over the subdirectory still works.
func tombstone(dir string) error {
	ad := filepath.Join(dir, "adopted")
	for _, f := range []string{JournalFile, checkpointFile} {
		src := filepath.Join(dir, f)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		if err := os.MkdirAll(ad, 0o755); err != nil {
			return err
		}
		if err := os.Rename(src, filepath.Join(ad, f)); err != nil {
			return err
		}
	}
	return nil
}
