// Session adoption: the failover half of the fleet design. When a fleet
// member dies, the supervisor fences it (Kill) and asks a healthy member to
// adopt the victim's durable state-dir. Adoption ships each session's whole
// journal segment — token, dedup watermark, window, poison and loss marks —
// into the adopter's own journal as one KindSessionAdopt record per session,
// then settles accepted-but-incomplete launches through the same
// exactly-once replay pass restart recovery uses. The client's resume token
// is the session's fleet-wide identity and survives the move unchanged; only
// the daemon-local session ID is re-minted.
package daemon

import (
	"errors"
	"fmt"
	"sort"

	"slate/internal/journal"
	"slate/internal/policy"
)

// AdoptStats summarizes one AdoptState call; the fleet supervisor logs it
// and uses Tokens to re-home its routing table.
type AdoptStats struct {
	// Sessions is how many resumable sessions were adopted.
	Sessions int
	// DedupOps is how many dedup-window entries moved with them.
	DedupOps int
	// Replayed is how many accepted-but-incomplete source launches the
	// adopter re-executed (exactly once, fleet-wide).
	Replayed int
	// Lost is how many accepted launches could not be re-executed
	// (in-process kernels whose closures died with the victim).
	Lost int
	// Conflicts is how many victim sessions were skipped because their token
	// already lives here (an earlier adoption of the same state-dir).
	Conflicts int
	// Profiles is how many warm kernel classifications travelled along.
	Profiles int
	// Tokens lists the adopted sessions' resume tokens, in adoption order.
	Tokens []uint64
}

// LogLine renders the one-line adoption summary the supervisor logs.
func (as *AdoptStats) LogLine() string {
	return fmt.Sprintf(
		"adopt: sessions=%d dedup-ops=%d replayed=%d lost=%d conflicts=%d profiles=%d",
		as.Sessions, as.DedupOps, as.Replayed, as.Lost, as.Conflicts, as.Profiles)
}

// AdoptState re-homes every resumable session found in a dead daemon's
// state-dir into this (durable, healthy) daemon. The caller must have fenced
// the victim first — Kill guarantees the victim journals nothing after the
// segment is read, which is what makes the re-executed launches exactly-once
// rather than at-least-once. Idempotent: adopting the same dir twice skips
// already-present tokens as conflicts.
func (s *Server) AdoptState(dir string) (*AdoptStats, error) {
	if s.durable == nil {
		return nil, errors.New("daemon: adoption requires durability (EnableDurability first)")
	}
	ls, _, _, err := loadDurableState(dir)
	if err != nil {
		return nil, err
	}
	stats := &AdoptStats{}
	// Warm profiles travel too; RestoreProfile keeps existing entries, so the
	// adopter's own measurements win on conflict.
	for name, p := range ls.profiles {
		s.Exec.RestoreProfile(name, policy.Class(p.Class), p.SoloSec)
		stats.Profiles++
	}
	// Deterministic adoption order: the victim's session IDs.
	victims := make([]*resumeState, 0, len(ls.sessions))
	for _, st := range ls.sessions {
		victims = append(victims, st)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Sess < victims[j].Sess })

	var adopted []*resumeState
	for _, v := range victims {
		st, dup, err := s.adoptSession(v)
		if err != nil {
			return stats, err
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
	// Settle re-homed in-flight work through the one exactly-once replay
	// path. Completions journal here, on the adopter.
	stats.Replayed, stats.Lost = s.replaySessions(adopted)
	return stats, nil
}

// adoptSession durably installs one victim session into this daemon under a
// fresh local session ID, keeping the resume token. It is the shared
// per-session half of AdoptState and planned migration. dup reports the
// token already lives here (idempotent re-adoption); the caller decides
// whether that is a conflict (failover) or fine (migration retry). The
// caller runs replaySessions afterwards to settle in-flight work.
func (s *Server) adoptSession(v *resumeState) (st *resumeState, dup bool, err error) {
	d := s.durable
	d.mu.Lock()
	_, dup = d.resume[v.Token]
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
	rec := &journal.Record{
		Kind: journal.KindSessionAdopt, Sess: sess, Token: v.Token, Proc: v.Proc,
		MaxOp: v.MaxOp, Code: v.PoisonCode, Err: v.PoisonErr, Lost: v.LostErr,
	}
	for _, e := range v.Window {
		rec.AdoptOps = append(rec.AdoptOps, journal.AdoptedOp{
			OpID: e.OpID, Code: e.Code, Err: e.Err,
			Degraded: e.Degraded, Entries: e.Entries, Done: e.Done,
			Src: e.Src, Kernel: e.Kernel,
			GridX: e.GridX, GridY: e.GridY, BlockX: e.BlockX, BlockY: e.BlockY,
			TaskSize: e.TaskSize, Stream: e.Stream,
		})
	}
	st = &resumeState{
		Sess: sess, Token: v.Token, Proc: v.Proc, MaxOp: v.MaxOp,
		Window: v.Window, PoisonErr: v.PoisonErr, PoisonCode: v.PoisonCode,
		LostErr: v.LostErr,
	}
	if err := s.journalAppend([]*journal.Record{rec}, func() {
		d.mu.Lock()
		d.resume[st.Token] = st
		d.bySess[st.Sess] = st
		d.mu.Unlock()
	}); err != nil {
		return nil, false, err
	}
	return st, false, nil
}
