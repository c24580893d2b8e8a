// Crash recovery for the wire-protocol daemon: a write-ahead journal of
// session and launch state, periodic compaction into a checkpoint, and the
// recovery path that rebuilds resumable sessions after a restart.
//
// Durable state machine (DESIGN.md §4):
//
//	hello        → journal session-open (token minted, pre-ack)
//	launch       → journal launch-accept (pre-ack, with the ack's contents
//	               and — for source launches — the geometry recovery needs
//	               to re-execute it)
//	launch done  → journal launch-complete (+ a poison strike when the
//	               outcome poisons the session, a lost strike when recovery
//	               could not re-run it)
//	resume       → journal a lost-surfaced strike when the session had a
//	               loss to report
//	profile      → journal the executor's first-run classification
//	close        → journal session-close (resumable state discarded)
//
// The durable state is the checkpoint folded with the journal after it
// through one function, sessionTable.apply. Recovery, adoption and
// StateDigest fold what is on disk; a running daemon runs the same apply on
// every record it appends, once the append succeeds, so the state it serves
// from is the state a restart rebuilds. apply is idempotent by identity
// (re-delivered records are no-ops, which a crash between checkpoint rename
// and journal reset depends on). Recovery then re-executes
// accepted-but-incomplete source launches exactly once and marks
// non-replayable in-process launches lost — a lost strike after the
// completion; a resumed session is told of the loss once, and that too is a
// strike. A reconnecting client presents its session token via OpResume and
// gets its dedup window, poison state, and pending outcomes back.
package daemon

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"slate/internal/fault"
	"slate/internal/ipc"
	"slate/internal/journal"
	"slate/internal/policy"
)

// Default durable-state filenames inside Durability.Dir.
const (
	// JournalFile is the append-only write-ahead log.
	JournalFile = "journal.slate"
	// checkpointFile is the compacted snapshot the journal folds into.
	checkpointFile = "checkpoint.slate"
)

// DedupWindow bounds each session's journaled replay window: the daemon
// remembers the accept-time ack of this many most-recent ops per session. A
// replayed op still inside the window returns its original reply verbatim
// (Dup set); an older one gets CodeDuplicateOp — it was accepted once and
// will not run again, but its outcome is no longer recallable.
const DedupWindow = 128

// defaultCompactEvery is how many journal records accumulate before the
// daemon folds them into the checkpoint and resets the log.
const defaultCompactEvery = 256

// Durability configures the daemon's crash-safe state layer.
type Durability struct {
	// Dir holds the journal and checkpoint files.
	Dir string
	// CompactEvery overrides defaultCompactEvery (0 = default).
	CompactEvery int
	// Crash is the crash-site hook (fault.Crasher.Hook) for kill-and-restart
	// testing; nil never fires.
	Crash func(site string) error
	// NoSync skips per-append fsync (tests only).
	NoSync bool
}

// resumeState is one session's durable, resumable identity: what survives a
// daemon restart and reattaches on OpResume. Exported fields persist in the
// checkpoint; only sessionTable.apply (and its helper push) writes the
// durable ones.
type resumeState struct {
	Sess  uint64 `json:"sess"`
	Token uint64 `json:"tok"`
	Proc  string `json:"proc,omitempty"`
	// MaxOp is the highest accepted op ID; anything at or below it is a
	// duplicate.
	MaxOp uint64 `json:"max_op,omitempty"`
	// Window is the bounded dedup FIFO, oldest first, in ascending op order.
	// Once push owns it, it is a view that slides through slab.
	Window []*journal.AdoptedOp `json:"window,omitempty"`
	// PoisonErr/PoisonCode persist sticky session poisoning (kernel panic or
	// containment timeout) across a restart.
	PoisonErr  string `json:"poison,omitempty"`
	PoisonCode uint8  `json:"poison_code,omitempty"`
	// LostErr reports accepted launches recovery could not re-execute
	// (in-process kernels whose closures died with the daemon); surfaced at
	// the resumed session's next Synchronize.
	LostErr string `json:"lost,omitempty"`

	attached bool // bound to a live connection (runtime only)
	// slab is the 2×DedupWindow array a full Window slides through (runtime
	// only; allocated by the first push that evicts): the view reaches its end
	// once per DedupWindow pushes, and only then are entries copied.
	slab []*journal.AdoptedOp
}

// entry returns the window entry for op, if still present. The search runs
// from the newest end: completions and re-sends name recent ops.
func (st *resumeState) entry(op uint64) *journal.AdoptedOp {
	for i := len(st.Window) - 1; i >= 0; i-- {
		if e := st.Window[i]; e.OpID == op {
			return e
		}
	}
	return nil
}

// clone deep-copies the session's resumable state (window entries included)
// so a checkpoint snapshot can be marshaled outside the daemon's locks.
func (st *resumeState) clone() *resumeState {
	cp := *st
	cp.slab = nil // the copy's window is its own slice, not a view of ours
	cp.Window = make([]*journal.AdoptedOp, len(st.Window))
	for i, e := range st.Window {
		ecp := *e
		ecp.Entries = append([]string(nil), e.Entries...)
		cp.Window[i] = &ecp
	}
	return &cp
}

// spare returns the window entry the next push evicts, for the caller to
// refill and push back as the newest, or nil while the window has room.
//
// The invariant that makes the reuse safe: a window entry is reachable only
// through its window, and is read or written only under durableState.mu
// (or before its table is shared). entry's callers use what it returns
// inside that critical section — dedup copies the ack out, apply marks a
// completion — clone deep-copies a window for a checkpoint, replaySessions
// replays copies of the entries, and apply copies an adopted session's
// entries in. So an entry push has dropped is reachable from nowhere. An ack
// dedup filled from an entry shares the entry's Entries array, which a
// refill replaces and never writes into.
func (st *resumeState) spare() *journal.AdoptedOp {
	if n := len(st.Window) - DedupWindow + 1; n > 0 {
		return st.Window[n-1]
	}
	return nil
}

// push appends a window entry, evicting the oldest beyond DedupWindow, in
// amortised constant time and, once the window has filled, without
// allocating. A filling window grows like any slice; a full one drops its
// oldest entry by moving the view's start, and when that leaves no room
// behind the newest entry the live entries move to the front of slab. It
// takes Window as it finds it — decoded from a checkpoint, handed over by
// adoption — so nothing else has to know about the slab.
func (st *resumeState) push(e *journal.AdoptedOp) {
	if n := len(st.Window) - DedupWindow + 1; n > 0 {
		clear(st.Window[:n]) // evicted entries must not stay reachable
		st.Window = st.Window[n:]
		if len(st.Window) == cap(st.Window) {
			if st.slab == nil {
				st.slab = make([]*journal.AdoptedOp, 2*DedupWindow)
			}
			n := copy(st.slab, st.Window)
			clear(st.slab[n:])
			st.Window = st.slab[:n]
		}
	}
	st.Window = append(st.Window, e)
	if e.OpID > st.MaxOp {
		st.MaxOp = e.OpID
	}
}

// profileSnap is one journaled executor classification.
type profileSnap struct {
	Class   int     `json:"class"`
	SoloSec float64 `json:"solo_sec"`
}

// checkpointState is the compaction snapshot the journal folds into.
type checkpointState struct {
	NextSess uint64                 `json:"next_sess"`
	Sessions []*resumeState         `json:"sessions,omitempty"`
	Profiles map[string]profileSnap `json:"profiles,omitempty"`
}

// durableState is the daemon's runtime handle on its crash-safe layer.
type durableState struct {
	// compactMu serializes journal appends (plus the in-memory effect each
	// record describes) against compaction. Holding it across the whole
	// append+apply pair and across the whole snapshot+checkpoint+reset
	// sequence guarantees two invariants the checkpoint depends on: every
	// record counted by the journal has its effect visible when the snapshot
	// is taken, and no record lands between the snapshot and the journal
	// reset (where it would be silently erased). Ordering: compactMu is
	// acquired before mu, s.mu, and s.Exec.mu, never the reverse.
	compactMu sync.Mutex

	mu           sync.Mutex
	w            *journal.Writer
	ckptPath     string
	compactEvery int
	crash        func(site string) error
	tab          *sessionTable // changed only by journalAppend's apply
	dedupHits    int
}

// RecoveryStats summarizes what EnableDurability found and rebuilt; slated
// logs it as its recovery event so operators can audit a restart.
type RecoveryStats struct {
	JournalPath      string
	CheckpointPath   string
	CheckpointLoaded bool
	// Sessions is how many resumable sessions were recovered.
	Sessions int
	// DedupOps is how many dedup-window entries (journaled launch acks) were
	// restored.
	DedupOps int
	// Profiles is how many warm first-run classifications were restored.
	Profiles int
	// Replayed is how many accepted-but-incomplete source launches recovery
	// re-executed (exactly once).
	Replayed int
	// Lost is how many accepted launches could not be re-executed
	// (in-process kernels); their sessions see a typed loss error.
	Lost int
	// Records is how many whole journal records replay applied.
	Records int
	// TruncatedBytes is the torn tail replay cut from the journal.
	TruncatedBytes int64
}

// sessionTable is the durable session state: a checkpoint (seed) folded
// with the journal records after it (apply). nextSess and profiles are only
// read when a table is loaded: a running daemon's checkpoint takes them from
// Server.nextSess, which also counts volatile and ping connections, and from
// the executor, which also holds profiles adoption restored without a record.
type sessionTable struct {
	nextSess uint64
	sessions map[uint64]*resumeState // token → state
	bySess   map[uint64]*resumeState
	profiles map[string]profileSnap
}

func newSessionTable() *sessionTable {
	return &sessionTable{
		sessions: map[uint64]*resumeState{},
		bySess:   map[uint64]*resumeState{},
		profiles: map[string]profileSnap{},
	}
}

// seed installs a checkpoint snapshot as the replay baseline.
func (t *sessionTable) seed(ck *checkpointState) {
	t.nextSess = ck.NextSess
	for _, st := range ck.Sessions {
		t.sessions[st.Token] = st
		t.bySess[st.Sess] = st
	}
	for k, v := range ck.Profiles {
		t.profiles[k] = v
	}
}

// Strike actions a session's KindStrike records carry.
const (
	// strikePoison: a kernel panic or containment timeout poisoned the
	// session (Code/Err hold the sticky error).
	strikePoison = "poison"
	// strikeLost: recovery could not re-run an accepted launch (Lost holds
	// the notice the session's next Synchronize reports).
	strikeLost = "lost"
	// strikeLostSurfaced: a resumed session was handed its loss notice.
	strikeLostSurfaced = "lost-surfaced"
)

// apply folds one journal record into the table. Idempotent by identity:
// re-delivered records (the checkpoint-rename-then-crash case) are no-ops.
func (t *sessionTable) apply(rec *journal.Record) {
	switch rec.Kind {
	case journal.KindSessionOpen:
		if _, ok := t.sessions[rec.Token]; ok {
			return
		}
		t.install(&resumeState{Sess: rec.Sess, Token: rec.Token, Proc: rec.Proc})
	case journal.KindSessionClose:
		if st, ok := t.bySess[rec.Sess]; ok {
			delete(t.sessions, st.Token)
			delete(t.bySess, rec.Sess)
		}
	case journal.KindLaunchAccept:
		st, ok := t.bySess[rec.Sess]
		if !ok || rec.OpID == 0 || rec.OpID <= st.MaxOp {
			return // closed session, unstamped op, or re-delivery
		}
		e := st.spare()
		if e == nil {
			e = new(journal.AdoptedOp)
		}
		*e = journal.AdoptedOp{
			OpID: rec.OpID, Code: rec.Code, Err: rec.Err,
			Degraded: rec.Degraded, Entries: rec.Entries,
			Src: rec.Src, Kernel: rec.Kernel,
			GridX: rec.GridX, GridY: rec.GridY, BlockX: rec.BlockX, BlockY: rec.BlockY,
			TaskSize: rec.TaskSize, Stream: rec.Stream,
		}
		st.push(e)
	case journal.KindLaunchComplete:
		if st, ok := t.bySess[rec.Sess]; ok {
			if e := st.entry(rec.OpID); e != nil {
				e.Done = true
			}
		}
	case journal.KindStrike:
		st, ok := t.bySess[rec.Sess]
		if !ok {
			return
		}
		switch rec.Action {
		case strikePoison:
			st.PoisonErr, st.PoisonCode = rec.Err, rec.Code
		case strikeLost:
			if st.LostErr == "" { // the first loss is the one reported
				st.LostErr = rec.Lost
			}
		case strikeLostSurfaced:
			st.LostErr = ""
		}
	case journal.KindProfile:
		t.profiles[rec.Kernel] = profileSnap{Class: rec.Class, SoloSec: rec.SoloSec}
	case journal.KindSessionAdopt:
		// A session re-homed from a dead fleet member: the record carries the
		// whole durable segment. Idempotent by token (the session's fleet-wide
		// identity), like every other record.
		if _, ok := t.sessions[rec.Token]; ok {
			return
		}
		st := &resumeState{
			Sess: rec.Sess, Token: rec.Token, Proc: rec.Proc,
			PoisonErr: rec.Err, PoisonCode: rec.Code, LostErr: rec.Lost,
		}
		for _, e := range rec.AdoptOps {
			if e != nil { // a "null" element decodes to nil
				cp := *e // the window owns its entries (spare)
				st.push(&cp)
			}
		}
		// The explicit watermark wins over what the (possibly trimmed) window
		// implies: ops that aged out of the window must stay duplicates.
		if rec.MaxOp > st.MaxOp {
			st.MaxOp = rec.MaxOp
		}
		t.install(st)
	case journal.KindSessionMigrate:
		// Planned migration source tombstone: the destination made its adopted
		// copy durable before this record was written, so the session is
		// simply no longer ours. Idempotent like a close.
		if st, ok := t.sessions[rec.Token]; ok {
			delete(t.sessions, rec.Token)
			delete(t.bySess, st.Sess)
		}
	}
}

// install homes a new session under its token and session ID.
func (t *sessionTable) install(st *resumeState) {
	t.sessions[st.Token] = st
	t.bySess[st.Sess] = st
	if st.Sess >= t.nextSess {
		t.nextSess = st.Sess + 1
	}
}

// loadDurableState reads checkpoint + journal from dir and folds them into a
// fresh table. Torn tails are truncated (reported in stats, not errors).
func loadDurableState(dir string) (*sessionTable, journal.ReplayStats, bool, error) {
	t := newSessionTable()
	var ck checkpointState
	ckLoaded, err := journal.ReadCheckpoint(filepath.Join(dir, checkpointFile), &ck)
	if err != nil {
		return nil, journal.ReplayStats{}, false, err
	}
	if ckLoaded {
		t.seed(&ck)
	}
	stats, err := journal.Replay(filepath.Join(dir, JournalFile), func(rec *journal.Record) error {
		t.apply(rec)
		return nil
	})
	if err != nil {
		return nil, stats, ckLoaded, err
	}
	return t, stats, ckLoaded, nil
}

// StateDigest deterministically fingerprints the durable state at dir —
// sessions, dedup windows, poison marks, and profiles — without installing
// it into a server. Loading is idempotent, so two consecutive digests of the
// same directory must match; the crashchaos harness asserts exactly that.
func StateDigest(dir string) (string, error) {
	t, _, _, err := loadDurableState(dir)
	if err != nil {
		return "", err
	}
	return t.digest(), nil
}

// digest renders the table deterministically: a next= line, a sess= line
// per session followed by its window, then a profile= line per profile.
func (t *sessionTable) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d\n", t.nextSess)
	toks := make([]uint64, 0, len(t.sessions))
	for tok := range t.sessions {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	for _, tok := range toks {
		st := t.sessions[tok]
		fmt.Fprintf(&b, "sess=%d tok=%x proc=%s max=%d poison=%q lost=%q\n",
			st.Sess, st.Token, st.Proc, st.MaxOp, st.PoisonErr, st.LostErr)
		for _, e := range st.Window {
			fmt.Fprintf(&b, "  op=%d code=%d err=%q deg=%v done=%v src=%v kernel=%s geom=%d,%d,%d,%d task=%d stream=%d\n",
				e.OpID, e.Code, e.Err, e.Degraded, e.Done, e.Src, e.Kernel,
				e.GridX, e.GridY, e.BlockX, e.BlockY, e.TaskSize, e.Stream)
		}
	}
	names := make([]string, 0, len(t.profiles))
	for n := range t.profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := t.profiles[n]
		fmt.Fprintf(&b, "profile=%s class=%d solo=%.9f\n", n, p.Class, p.SoloSec)
	}
	return b.String()
}

// tokenSalt mixes session IDs into resume tokens. Tokens gate resumption of
// a single-user local daemon's sessions, not authentication; determinism
// (same session order → same tokens) is what the chaos harness needs.
const tokenSalt = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// tokenFor mints the resume token for a session ID. seed distinguishes
// fleet members: without it every daemon would mint the same token for the
// same session ID, and a token is the fleet's only session identity across
// a failover. seed 0 reproduces the historical standalone token stream.
func tokenFor(sess, seed uint64) uint64 {
	z := sess + tokenSalt
	if seed != 0 {
		z ^= mix64(seed + tokenSalt)
	}
	return mix64(z)
}

// EnableDurability turns on the crash-safe state layer: it recovers any
// prior state in cfg.Dir (checkpoint + journal replay + launch replay),
// installs the resumable sessions and warm profiles into the server, and
// opens the journal for appending. Call before Serve.
func (s *Server) EnableDurability(cfg Durability) (*RecoveryStats, error) {
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = defaultCompactEvery
	}
	// Recovery replays accepted-but-incomplete launches out of the dedup
	// window, so every pending op must still be inside it: an unbounded (or
	// window-sized) per-session pending limit would let accepted ops age out
	// of the window and vanish from replay. Clamp the bound below the window.
	if s.MaxSessionPending <= 0 || s.MaxSessionPending >= DedupWindow {
		s.MaxSessionPending = DedupWindow / 2
	}
	jPath := filepath.Join(cfg.Dir, JournalFile)
	ckptPath := filepath.Join(cfg.Dir, checkpointFile)

	tab, rstats, ckLoaded, err := loadDurableState(cfg.Dir)
	if err != nil {
		return nil, err
	}
	stats := RecoveryStats{
		JournalPath:      jPath,
		CheckpointPath:   ckptPath,
		CheckpointLoaded: ckLoaded,
		Sessions:         len(tab.sessions),
		Profiles:         len(tab.profiles),
		Records:          rstats.Records,
		TruncatedBytes:   rstats.TruncatedBytes,
	}
	sts := make([]*resumeState, 0, len(tab.sessions))
	for _, st := range tab.sessions {
		stats.DedupOps += len(st.Window)
		sts = append(sts, st)
	}

	w, err := journal.OpenWriter(jPath)
	if err != nil {
		return nil, err
	}
	w.CrashHook = cfg.Crash
	w.NoSync = cfg.NoSync

	s.mu.Lock()
	if tab.nextSess > s.nextSess {
		s.nextSess = tab.nextSess
	}
	s.mu.Unlock()
	for name, p := range tab.profiles {
		s.Exec.RestoreProfile(name, policy.Class(p.Class), p.SoloSec)
	}
	s.durable = &durableState{
		w:            w,
		ckptPath:     ckptPath,
		compactEvery: cfg.CompactEvery,
		crash:        cfg.Crash,
		tab:          tab,
	}
	s.Exec.OnProfile = func(name string, class policy.Class, soloSec float64) {
		_ = s.journalAppend([]*journal.Record{{
			Kind: journal.KindProfile, Kernel: name, Class: int(class), SoloSec: soloSec,
		}})
	}

	// Exactly-once launch replay: accepted-but-incomplete source launches
	// re-execute now (their geometry is in the journal); in-process launches
	// cannot (their closures died with the old process) and are marked lost.
	// It runs before the server accepts connections, so a resuming client
	// observes fully settled state.
	stats.Replayed, stats.Lost = s.replaySessions(sts)
	return &stats, nil
}

// replaySessions runs the exactly-once replay pass over the given sessions'
// dedup windows: accepted-but-incomplete source launches re-execute (their
// geometry is journaled), in-process launches are marked lost (their
// closures died with the original process). Both restart recovery and fleet
// adoption settle re-homed work through this one path.
func (s *Server) replaySessions(sts []*resumeState) (replayed, lost int) {
	d := s.durable
	// Each pending launch is a copy of its window entry: the window may
	// recycle the entry once d.mu is released (push).
	type pending struct {
		st *resumeState
		e  journal.AdoptedOp
	}
	var todo []pending
	d.mu.Lock()
	for _, st := range sts {
		for _, e := range st.Window {
			// Only launches whose accept succeeded are replayable work; a
			// journaled rejection (Code != 0) never executed and never will.
			if !e.Done && e.Code == 0 {
				todo = append(todo, pending{st, *e})
			}
		}
	}
	d.mu.Unlock()
	sort.Slice(todo, func(i, j int) bool {
		if todo[i].st.Sess != todo[j].st.Sess {
			return todo[i].st.Sess < todo[j].st.Sess
		}
		return todo[i].e.OpID < todo[j].e.OpID
	})
	var g recordGroup
	for _, p := range todo {
		if !p.e.Src {
			err := fmt.Errorf("daemon: launch op %d lost in crash (%w)", p.e.OpID, errNotReplayable)
			s.journalCompletions(&g, []launchOutcome{{st: p.st, opID: p.e.OpID, err: err}})
			lost++
			continue
		}
		spec := synthesizeSourceSpec(p.e.Kernel, p.e.GridX, p.e.GridY, p.e.BlockX, p.e.BlockY)
		var err error
		if spec == nil {
			err = fmt.Errorf("daemon: replay op %d: invalid journaled geometry", p.e.OpID)
		} else if p.e.Degraded {
			err = s.Exec.RunVanilla(spec, p.e.TaskSize)
		} else {
			err = s.Exec.Run(spec, p.e.TaskSize)
		}
		s.journalCompletions(&g, []launchOutcome{{st: p.st, opID: p.e.OpID, err: err}})
		replayed++
	}
	return replayed, lost
}

// DedupHits reports how many duplicate ops the dedup window absorbed since
// startup (replays answered from stored acks plus out-of-window rejections).
func (s *Server) DedupHits() int {
	if s.durable == nil {
		return 0
	}
	s.durable.mu.Lock()
	defer s.durable.mu.Unlock()
	return s.durable.dedupHits
}

// Crashed reports whether an injected crash site fired: the simulated
// process is dead and refuses all further work.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// crash simulates process death after a fired crash site: every transport
// closes mid-conversation (no acks escape), new connections are refused,
// and the journal writer dies with the process — a dead process cannot
// append, so an in-flight worker finishing after the crash can never make
// its completion durable. The append-path sites mark the writer dead
// themselves; this covers deaths that fire elsewhere (checkpoint.mid),
// which would otherwise leave the durability of post-crash completions to
// goroutine timing.
func (s *Server) crash() {
	if s.crashed.Swap(true) {
		return
	}
	if s.durable != nil {
		s.durable.w.Kill()
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

// Kill fences the daemon for failover (STONITH-style): the simulated
// process dies instantly — every transport closes mid-conversation, new
// connections are refused, and the journal writer refuses all further
// appends, so nothing this daemon does after Kill returns can become
// durable. The fleet supervisor calls it before adopting the daemon's
// state-dir; without the fence, a hung-but-alive daemon could journal a
// completion concurrently with the adopter re-executing the same launch.
func (s *Server) Kill() { s.crash() }

// journalAppend writes a group of records through the WAL — one write and one
// fsync, a lone record with journal.Append and a larger group with
// journal.AppendBatch, whose bytes are those of len(recs) sequential Appends,
// so replay, adoption and migration read the log with no notion of groups —
// and, still under the compaction lock, folds each record into the session
// table with the apply recovery replays it with. This is the only way a
// running daemon changes its durable state. Append and apply are atomic with
// respect to compaction: a record is either absent from both journal and
// memory (append died) or present in both before any checkpoint can snapshot,
// so compaction never erases a record whose effect the checkpoint missed.
// When the log is due afterwards it is folded into the checkpoint before the
// lock is released. A fired crash site kills the daemon (conns close, no ack
// escapes) and surfaces fault.ErrCrash to the caller; apply does not run —
// the records may be durable, but recovery replay rebuilds their effect. Any
// OTHER append failure — a write error, a short write, a failed fsync — kills
// the daemon too: the policy is fail-stop, because a record whose durability
// is unknown must never be followed by an ack (fsyncgate) — of any item of
// its group — and a journal that can no longer write cannot uphold
// write-ahead for anything that follows.
func (s *Server) journalAppend(recs []*journal.Record) error {
	if s.durable == nil || len(recs) == 0 {
		return nil
	}
	d := s.durable
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	var err error
	if len(recs) == 1 {
		err = d.w.Append(recs[0])
	} else {
		err = d.w.AppendBatch(recs)
	}
	if err != nil {
		s.crash()
		return err
	}
	d.mu.Lock()
	for _, rec := range recs {
		d.tab.apply(rec)
	}
	d.mu.Unlock()
	if d.w.Records() >= d.compactEvery {
		s.compactLocked()
	}
	return nil
}

// compactLocked folds the journal into the checkpoint. Caller holds
// d.compactMu, so no append can land between the snapshot and the journal
// reset, and only one compaction runs at a time. The snapshot deep-copies
// every session under d.mu — json.Marshal then reads the copies without any
// lock while live states keep mutating. Crash ordering: the checkpoint
// publishes (rename) before the journal resets, so a death between the two
// re-delivers every checkpointed record on recovery — which idempotent
// apply absorbs.
func (s *Server) compactLocked() {
	d := s.durable
	d.mu.Lock()
	ck := &checkpointState{}
	for _, st := range d.tab.sessions {
		ck.Sessions = append(ck.Sessions, st.clone())
	}
	d.mu.Unlock()
	sort.Slice(ck.Sessions, func(i, j int) bool { return ck.Sessions[i].Sess < ck.Sessions[j].Sess })
	s.mu.Lock()
	ck.NextSess = s.nextSess
	s.mu.Unlock()
	ck.Profiles = s.Exec.snapshotProfiles()

	if err := journal.WriteCheckpoint(d.ckptPath, ck, d.crash); err != nil {
		if errors.Is(err, fault.ErrCrash) {
			s.crash()
		}
		return // journal keeps everything; next compaction retries
	}
	_ = d.w.Reset()
}

// openSession mints a durable session identity for a fresh hello (or an
// unknown resume token) and journals it pre-ack. Returns the resume state the
// record created, attached, or an error when the append died (the caller must
// vanish without acking).
func (s *Server) openSession(ss *session, proc string) (*resumeState, error) {
	if s.durable == nil {
		return nil, nil
	}
	tok := tokenFor(ss.id, s.TokenSeed)
	if err := s.journalAppend([]*journal.Record{{
		Kind: journal.KindSessionOpen, Sess: ss.id, Token: tok, Proc: proc,
	}}); err != nil {
		return nil, err
	}
	d := s.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.tab.sessions[tok]
	st.attached = true
	return st, nil
}

// resumeSession reattaches a recovered session by token. Verdicts:
// (state, true)  — found and reattached, durable state restored;
// (nil, false)   — unknown token or already attached: the caller falls back
// to a fresh session (client runs degraded, PR 1 semantics).
func (s *Server) resumeSession(token uint64) (*resumeState, bool) {
	if s.durable == nil || token == 0 {
		return nil, false
	}
	d := s.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.tab.sessions[token]
	if !ok || st.attached {
		return nil, false
	}
	st.attached = true
	return st, true
}

// detachSession releases a resume binding at teardown so a later OpResume
// can reattach.
func (s *Server) detachSession(st *resumeState) {
	if s.durable == nil || st == nil {
		return
	}
	s.durable.mu.Lock()
	st.attached = false
	s.durable.mu.Unlock()
}

// closeSession discards a session's resumable state after a clean OpClose.
func (s *Server) closeSession(st *resumeState) {
	if s.durable == nil || st == nil {
		return
	}
	_ = s.journalAppend([]*journal.Record{{Kind: journal.KindSessionClose, Sess: st.Sess}})
}

// recordGroup is a commit group built in storage kept from one group to the
// next: the records, and the pointers journalAppend takes. A record is
// encoded and applied inside journalAppend and nothing holds it afterwards,
// so commit clears the group and the next one reuses its storage. Each
// group has one owner: a session's ServeConn goroutine builds its accept
// groups in its dispatcher's, a lane its completion groups in the lane's.
type recordGroup struct {
	recs []journal.Record
	ptrs []*journal.Record
}

// keptRecords is the largest group whose storage a recordGroup keeps for the
// next one: a frame of 32, or a lane's full buffer of completions with a
// strike behind each. A larger group's storage goes when it commits.
const keptRecords = 2 * completionFlushThreshold

// commit appends the group through journalAppend and empties it, clearing
// its storage so no string of a committed record stays reachable.
func (g *recordGroup) commit(s *Server) error {
	for i := range g.recs {
		g.ptrs = append(g.ptrs, &g.recs[i])
	}
	err := s.journalAppend(g.ptrs)
	if len(g.recs) > keptRecords {
		g.recs, g.ptrs = nil, nil
		return err
	}
	clear(g.recs)
	clear(g.ptrs)
	g.recs, g.ptrs = g.recs[:0], g.ptrs[:0]
	return err
}

// dedup answers a replayed launch from the session's dedup window, into its
// ack: an op still in the window gets its original ack back with Dup set, one
// at or below MaxOp that has aged out gets CodeDuplicateOp. False means the
// op is fresh (or carries no dedup identity) and must go on to admission.
func (s *Server) dedup(st *resumeState, opID uint64, ack *ipc.BatchAck) bool {
	if s.durable == nil || st == nil || opID == 0 {
		return false
	}
	d := s.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	if opID > st.MaxOp {
		return false
	}
	d.dedupHits++
	if e := st.entry(opID); e != nil {
		ack.Code, ack.Err = ipc.ErrCode(e.Code), e.Err
		ack.Degraded, ack.Entries = e.Degraded, e.Entries
		ack.Dup = true
		return true
	}
	ack.Code = ipc.CodeDuplicateOp
	ack.Err = fmt.Sprintf("daemon: op %d already accepted, outcome outside dedup window", opID)
	return true
}

// acceptFrame journals the accept records for every accepted item of a frame
// — write-ahead of the ack, with the ack's contents and, for source launches,
// the geometry recovery needs to re-execute them — in one group commit, whose
// apply installs their dedup entries in op-ID order. idxs selects the accepted
// items (per-item rejections are acked but never journaled); an unstamped one
// has no identity to journal under. A fired crash site returns
// fault.ErrCrash: the caller dies without acking, so either no item of the
// frame is durable (torn prefix truncates on replay) or all are (durable,
// un-acked; the dedup window absorbs the re-send).
func (s *Server) acceptFrame(g *recordGroup, st *resumeState, items []ipc.BatchItem, acks []ipc.BatchAck, idxs []int) error {
	if s.durable == nil || st == nil {
		return nil
	}
	for _, i := range idxs {
		it, a := &items[i], &acks[i]
		if it.OpID == 0 {
			continue
		}
		g.recs = append(g.recs, journal.Record{
			Kind: journal.KindLaunchAccept, Sess: st.Sess, OpID: it.OpID,
			Code: uint8(a.Code), Err: a.Err, Degraded: a.Degraded, Entries: a.Entries,
			Src: it.Src, Kernel: it.Kernel,
			GridX: it.GridX, GridY: it.GridY, BlockX: it.BlockX, BlockY: it.BlockY,
			TaskSize: it.TaskSize, Stream: it.Stream,
		})
	}
	return g.commit(s)
}

// launchOutcome is one finished launch awaiting its completion record.
type launchOutcome struct {
	st   *resumeState
	opID uint64
	err  error
}

// poisons reports whether a launch outcome is sticky for its session.
func poisons(err error) bool {
	return errors.Is(err, ErrKernelPanic) || errors.Is(err, ErrKernelTimeout)
}

// errNotReplayable is why recovery reports an accepted in-process launch
// lost: its closure died with the process that accepted it.
var errNotReplayable = errors.New("in-process kernel not replayable")

// journalCompletions journals the terminal outcomes of a group of finished
// launches, whose apply marks their dedup entries done. A session-poisoning
// outcome (panic, containment timeout) also journals a poison strike, and a
// launch recovery could not re-run a lost strike, right after its
// completion, so a restart keeps the session poisoned or its loss still to
// report. The whole group lands in one commit. A simulated death drops it:
// none of the completions is durable and recovery re-executes them, which the
// exactly-once contract permits (completion loss, not duplication).
func (s *Server) journalCompletions(g *recordGroup, outs []launchOutcome) {
	if s.durable == nil {
		return
	}
	for _, o := range outs {
		if o.st == nil || o.opID == 0 {
			continue
		}
		var code uint8
		var msg string
		if o.err != nil {
			code, msg = uint8(ipc.CodeOf(o.err)), o.err.Error()
		}
		g.recs = append(g.recs, journal.Record{Kind: journal.KindLaunchComplete, Sess: o.st.Sess, OpID: o.opID, Code: code, Err: msg})
		switch {
		case o.err == nil:
		case poisons(o.err):
			g.recs = append(g.recs, journal.Record{
				Kind: journal.KindStrike, Sess: o.st.Sess, Action: strikePoison, Code: code, Err: msg,
			})
		case errors.Is(o.err, errNotReplayable):
			g.recs = append(g.recs, journal.Record{
				Kind: journal.KindStrike, Sess: o.st.Sess, Action: strikeLost, Lost: msg,
			})
		}
	}
	_ = g.commit(s)
}

// CloseDurability closes the journal writer (tests and shutdown).
func (s *Server) CloseDurability() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.w.Close()
}
