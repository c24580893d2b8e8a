// Package journal is the daemon's durable-state layer: an append-only
// write-ahead log of length+CRC32C-framed JSON records, plus an atomically
// replaced checkpoint file the log periodically compacts into.
//
// Durability contract:
//   - Append is called BEFORE the daemon acks the operation it records
//     (write-ahead). A crash between append and ack leaves a durable,
//     un-acked record; the client re-sends and the daemon dedups.
//   - A crash mid-append leaves a torn tail. Replay detects it (truncated
//     frame or checksum mismatch), truncates the file back to the last whole
//     record, and reports what it dropped.
//   - Replay is idempotent by construction on the consumer side: records
//     carry identities (session ID, op ID), and appliers must treat a
//     re-delivered identity as a no-op — the compaction path depends on it,
//     because a crash after the checkpoint rename but before the log
//     truncation re-delivers every checkpointed record.
//
// Crash simulation: the Writer and checkpoint writer accept a hook
// (fault.Crasher.Hook) fired at the named sites in internal/fault; a non-nil
// return makes them behave exactly as a process death at that point would —
// a torn append, or an orphaned checkpoint temp file.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"slate/internal/fault"
	"slate/internal/ipc"
)

// Kind enumerates journal record types.
type Kind uint8

const (
	// KindSessionOpen: a client session was established (hello).
	KindSessionOpen Kind = iota + 1
	// KindSessionClose: a session ended cleanly (OpClose); its resumable
	// state is discarded.
	KindSessionClose
	// KindLaunchAccept: a launch passed admission and is about to be acked.
	KindLaunchAccept
	// KindLaunchComplete: an accepted launch finished, with its outcome.
	KindLaunchComplete
	// KindStrike: a change to a session's sticky state, named by Action:
	// "poison" (a kernel panic or containment timeout; Code/Err), "lost" (an
	// accepted launch recovery could not re-run; Lost) or "lost-surfaced"
	// (the session was handed its loss notice).
	KindStrike
	// KindProfile: a kernel's first-run classification — the warm profile
	// state a restart would otherwise re-measure.
	KindProfile
	// KindSessionAdopt: a session re-homed from a failed daemon. The fleet
	// supervisor ships the session's whole durable segment — resume token,
	// dedup window, MaxOp watermark, poison and loss marks — into the
	// adopting daemon's journal as one record, so fleet-wide exactly-once
	// accounting survives the move.
	KindSessionAdopt
	// KindSessionMigrate: a session cooperatively handed off to another
	// daemon (planned migration). It is the source-side tombstone: the
	// destination has already made the adopted copy durable, so replaying
	// this record simply drops the session from the source's recoverable
	// state — a restart over the source dir recovers nothing for it.
	KindSessionMigrate
)

func (k Kind) String() string {
	switch k {
	case KindSessionOpen:
		return "session-open"
	case KindSessionClose:
		return "session-close"
	case KindLaunchAccept:
		return "launch-accept"
	case KindLaunchComplete:
		return "launch-complete"
	case KindStrike:
		return "strike"
	case KindProfile:
		return "profile"
	case KindSessionAdopt:
		return "session-adopt"
	case KindSessionMigrate:
		return "session-migrate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Fields beyond Kind are populated per kind;
// JSON encoding keeps the log debuggable with standard tools.
type Record struct {
	Kind Kind `json:"k"`
	// Sess and OpID identify the operation for dedup (open/close/accept/
	// complete records).
	Sess uint64 `json:"sess,omitempty"`
	OpID uint64 `json:"op,omitempty"`
	// Token is the session resume credential (session-open).
	Token uint64 `json:"tok,omitempty"`
	Proc  string `json:"proc,omitempty"`
	// Launch parameters (launch-accept). Src marks a source launch, whose
	// synthesized geometry lets recovery re-execute it; executable in-process
	// launches cannot be re-run after a crash (their closures died with the
	// client's view of the spec table).
	Kernel   string `json:"kernel,omitempty"`
	Src      bool   `json:"src,omitempty"`
	GridX    int    `json:"gx,omitempty"`
	GridY    int    `json:"gy,omitempty"`
	BlockX   int    `json:"bx,omitempty"`
	BlockY   int    `json:"by,omitempty"`
	TaskSize int    `json:"task,omitempty"`
	Stream   int    `json:"stream,omitempty"`
	// Accept-time outcome (launch-accept): the reply the client was/will be
	// acked with.
	Degraded bool     `json:"deg,omitempty"`
	Entries  []string `json:"entries,omitempty"`
	// Completion outcome (launch-complete).
	Code uint8  `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	// What a strike changes on its session.
	Action string `json:"action,omitempty"`
	// Warm profile state (profile).
	Class   int     `json:"class,omitempty"`
	SoloSec float64 `json:"solo_sec,omitempty"`
	// Re-homed session segment (session-adopt): the dedup watermark, the
	// loss mark (also a lost strike's notice), and the full window. Poison
	// rides on Code/Err above.
	MaxOp    uint64       `json:"max_op,omitempty"`
	Lost     string       `json:"lost,omitempty"`
	AdoptOps []*AdoptedOp `json:"adopt_ops,omitempty"`
}

// AdoptedOp is one journaled launch in a session's dedup window, in every
// place the window lives: the daemon's live per-session window, the
// checkpoint's copy of it, and the AdoptOps of a session-adopt record. It
// holds the accept-time ack a re-sending client gets back, plus the geometry
// recovery — or an adopting daemon — needs to re-execute an
// accepted-but-incomplete source launch exactly once.
type AdoptedOp struct {
	OpID uint64 `json:"op"`
	// Accept-time ack, replayed verbatim on a duplicate send.
	Code     uint8    `json:"code,omitempty"`
	Err      string   `json:"err,omitempty"`
	Degraded bool     `json:"deg,omitempty"`
	Entries  []string `json:"entries,omitempty"`
	// Done marks the launch's completion record as journaled; only
	// accepted-incomplete launches are re-executed.
	Done bool `json:"done,omitempty"`
	// Replay material (source launches).
	Src      bool   `json:"src,omitempty"`
	Kernel   string `json:"kernel,omitempty"`
	GridX    int    `json:"gx,omitempty"`
	GridY    int    `json:"gy,omitempty"`
	BlockX   int    `json:"bx,omitempty"`
	BlockY   int    `json:"by,omitempty"`
	TaskSize int    `json:"task,omitempty"`
	Stream   int    `json:"stream,omitempty"`
}

// Writer is the append-only journal. Safe for concurrent appenders; each
// record is encoded, framed, written, and fsynced under one lock so the
// on-disk record order is the append order.
type Writer struct {
	// CrashHook, when set, simulates process death at the journal's named
	// crash sites (fault.SiteJournalAppendPre/Post). Install before the
	// first Append.
	CrashHook func(site string) error
	// NoSync skips the per-append fsync (tests and benchmarks only).
	NoSync bool

	mu      sync.Mutex
	f       *os.File
	records int
	dead    bool
	// buf is the encode buffer every append reuses: header and payload of
	// each frame are built in it and written from it, under mu.
	buf []byte
}

// OpenWriter opens (creating if absent) the journal at path for appending.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	return &Writer{f: f}, nil
}

// Append encodes rec, frames it, writes it, and fsyncs — all before the
// caller may ack the operation the record describes. A fired crash hook at
// the pre site tears the frame mid-write (the record is not durable); at the
// post site the record is durable but the caller must die before acking.
// Either way the writer is dead afterwards: the simulated process is gone.
//
// The hook also fires at the disk-fault sites, where the process lives but
// the disk fails; the policy is fail-stop, so the writer is equally dead
// afterwards. At journal.write.err nothing reaches the file; at
// journal.write.short a torn prefix lands (a short write); at
// journal.fsync.err the frame is fully written but never synced — the
// record MAY be durable, and because the error propagates before any ack,
// a re-sending client settles it to exactly one execution either way.
func (w *Writer) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return fault.ErrCrash
	}
	buf, err := appendFrame(w.buf[:0], rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	w.buf = buf
	// Death mid-write: half the frame reaches the file.
	return w.commit(1, fault.SiteJournalAppendPre, fault.SiteJournalAppendPost, len(buf)/2)
}

// AppendBatch is the group-commit path: it frames every record, writes them
// in one contiguous append, and fsyncs once — the batch amortizes the
// per-record sync that dominates single-launch dispatch. On-disk bytes are
// identical to len(recs) individual Appends (plain framed records in order),
// so Replay and every consumer read batched logs unchanged. Crash semantics:
// at fault.SiteJournalBatchMid the writer dies mid-batch — a prefix of whole
// frames plus one torn frame reach the file, nothing is synced, no record of
// the batch may be treated as acked; at fault.SiteJournalBatchPost the whole
// batch is durable but the caller must die before acking any item.
func (w *Writer) AppendBatch(recs []*Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return fault.ErrCrash
	}
	// Death mid-batch: the first ⌈n/2⌉ records land whole, the next frame is
	// torn in half (when there is one).
	keep := (len(recs) + 1) / 2
	buf, torn := w.buf[:0], 0
	for i, rec := range recs {
		start := len(buf)
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return fmt.Errorf("journal: encode: %w", err)
		}
		switch {
		case i < keep:
			torn = len(buf)
		case i == keep:
			torn += (len(buf) - start) / 2
		}
	}
	w.buf = buf
	return w.commit(len(recs), fault.SiteJournalBatchMid, fault.SiteJournalBatchPost, torn)
}

// keepBufCap is the largest encode buffer a Writer holds on to between
// appends; a group that needed more gives its buffer back when it commits.
const keepBufCap = 64 << 10

// commit writes the n frames encoded in w.buf in one write and one fsync,
// firing the crash hook at pre (death mid-write: buf[:torn] is what reaches
// the file), the disk-fault sites, and post (durable, un-acked). Caller
// holds w.mu and has checked w.dead.
func (w *Writer) commit(n int, pre, post string, torn int) error {
	buf := w.buf
	if cap(buf) > keepBufCap {
		w.buf = nil // a one-off large group must not pin its buffer forever
	}
	if w.CrashHook != nil {
		if err := w.CrashHook(pre); err != nil {
			_, _ = w.f.Write(buf[:torn])
			w.dead = true
			return err
		}
		if err := w.CrashHook(fault.SiteJournalWriteErr); err != nil {
			// The write errors outright: no byte lands, fail-stop.
			w.dead = true
			return err
		}
		if err := w.CrashHook(fault.SiteJournalWriteShort); err != nil {
			// Short write: a torn prefix lands, nothing is synced, fail-stop.
			_, _ = w.f.Write(buf[:len(buf)/2])
			w.dead = true
			return err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		w.dead = true
		return fmt.Errorf("journal: append: %w", err)
	}
	if w.CrashHook != nil {
		if err := w.CrashHook(fault.SiteJournalSyncErr); err != nil {
			// fsync fails after a complete write: the records may or may not
			// be durable, and no ack may follow — fail-stop (fsyncgate).
			w.dead = true
			return err
		}
	}
	if !w.NoSync {
		if err := w.f.Sync(); err != nil {
			w.dead = true
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	w.records += n
	if w.CrashHook != nil {
		if err := w.CrashHook(post); err != nil {
			// Death after durability, before the ack.
			w.dead = true
			return err
		}
	}
	return nil
}

// Kill marks the writer dead without a crash-site hook: the fleet's
// daemon-kill (and STONITH-style fencing at failover) uses it to guarantee
// nothing the fenced daemon does after this point becomes durable. Every
// later Append or Reset fails with fault.ErrCrash.
func (w *Writer) Kill() {
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
}

// Records returns how many records this writer has durably appended.
func (w *Writer) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Reset truncates the journal to empty — called after its contents were
// compacted into a checkpoint.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return fault.ErrCrash
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.records = 0
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReplayStats reports what a replay found.
type ReplayStats struct {
	// Records is how many whole, checksum-valid records were applied.
	Records int
	// Truncated reports that a torn or corrupt tail was found and cut.
	Truncated bool
	// TruncatedBytes is how many trailing bytes were dropped.
	TruncatedBytes int64
}

// Replay reads the journal at path, invoking fn for each valid record in
// append order. A torn or corrupt tail — a partial frame, a checksum
// mismatch, or an undecodable payload — ends the replay: the file is
// truncated back to the last whole record (so the next replay is clean) and
// the loss is reported in the stats, not as an error. A missing file is an
// empty journal. fn returning an error aborts the replay with that error.
func Replay(path string, fn func(*Record) error) (ReplayStats, error) {
	var stats ReplayStats
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("journal: replay open: %w", err)
	}
	defer f.Close()

	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return stats, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return stats, err
	}
	var good int64
	for {
		payload, err := ipc.ReadFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, ipc.ErrFrameTruncated) || errors.Is(err, ipc.ErrFrameCorrupt) {
				return truncateTail(f, good, size, stats)
			}
			return stats, fmt.Errorf("journal: replay: %w", err)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A framed-but-undecodable record: treat like corruption from
			// here on — nothing after it can be trusted.
			return truncateTail(f, good, size, stats)
		}
		if err := fn(&rec); err != nil {
			return stats, err
		}
		stats.Records++
		good += int64(len(payload)) + ipc.FrameHeaderSize
	}
	return stats, nil
}

// truncateTail cuts the journal back to the last whole record.
func truncateTail(f *os.File, good, size int64, stats ReplayStats) (ReplayStats, error) {
	stats.Truncated = true
	stats.TruncatedBytes = size - good
	if err := f.Truncate(good); err != nil {
		return stats, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	return stats, f.Sync()
}

// WriteCheckpoint atomically replaces the checkpoint at path with the JSON
// encoding of v, framed with a CRC32C so a torn or rotted checkpoint is
// detectable. A fired crash hook at fault.SiteCheckpointMid dies after a
// partial temp write — the rename never happens, and recovery must ignore
// the orphan temp file.
func WriteCheckpoint(path string, v any, crashHook func(site string) error) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: checkpoint encode: %w", err)
	}
	return Publish(path, ipc.AppendFrame(nil, payload), crashHook, fault.SiteCheckpointMid, "")
}

// Publish atomically replaces the file at path with data: temp file in the
// same directory, write, fsync, close, rename, fsync the directory. A crash
// leaves the old file or the new one, never a blend, and at worst an orphan
// path+".tmp" for the next reader to remove. The checkpoint and the profile
// table both publish through it.
//
// crash (nil in production) simulates process death at the caller's named
// site: tornSite is asked before the temp is written, and a fired hook leaves
// half of data in it; wholeSite is asked once the temp is durable, before the
// rename. Either way path is untouched. An empty site is never asked.
func Publish(path string, data []byte, crash func(site string) error, tornSite, wholeSite string) error {
	died := func(site string) error {
		if crash == nil || site == "" {
			return nil
		}
		return crash(site)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: publish: %w", err)
	}
	if err := died(tornSite); err != nil {
		_, _ = f.Write(data[:len(data)/2])
		f.Close()
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: publish: %w", err)
	}
	if err := died(wholeSite); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: publish: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("journal: publish: %w", err)
	}
	return nil
}

// ReadCheckpoint loads the checkpoint at path into v. Absent → (false, nil).
// A torn or corrupt checkpoint is quarantined to path+".bad" and reported as
// absent rather than aborting recovery — the journal still holds everything
// since the previous good compaction. Orphan temp files from a crashed
// checkpoint write are removed.
func ReadCheckpoint(path string, v any) (bool, error) {
	_ = os.Remove(path + ".tmp") // a crash mid-checkpoint leaves this orphan
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal: checkpoint open: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return false, fmt.Errorf("journal: checkpoint stat: %w", err)
	}
	// WriteCheckpoint frames a payload of any size, so the declared length
	// is bounded by what the file holds, not by ipc's frame bound.
	payload, ferr := ipc.ReadFrameWithin(f, fi.Size()-ipc.FrameHeaderSize)
	if ferr == nil {
		// The frame must be the whole file: trailing bytes mean corruption.
		var rest [1]byte
		if n, _ := f.Read(rest[:]); n != 0 {
			ferr = ipc.ErrFrameCorrupt
		}
	}
	f.Close()
	if ferr == nil {
		if err := json.Unmarshal(payload, v); err != nil {
			ferr = err
		}
	}
	if ferr != nil {
		if qerr := os.Rename(path, path+".bad"); qerr != nil {
			return false, fmt.Errorf("journal: quarantine corrupt checkpoint: %v (cause: %v)", qerr, ferr)
		}
		return false, nil
	}
	return true, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
