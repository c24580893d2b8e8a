package journal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/internal/fault"
	"slate/internal/ipc"
)

func rec(sess, op uint64, kernel string) *Record {
	return &Record{Kind: KindLaunchAccept, Sess: sess, OpID: op, Kernel: kernel, Src: true}
}

// Append → Replay round trip: every record comes back, in append order.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []string{"sgemm", "triad", "spmv"}
	for i, k := range kernels {
		if err := w.Append(rec(1, uint64(i+1), k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	stats, err := Replay(path, func(r *Record) error {
		got = append(got, r.Kernel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Truncated {
		t.Fatalf("stats = %+v, want 3 clean records", stats)
	}
	for i, k := range kernels {
		if got[i] != k {
			t.Fatalf("record %d = %q, want %q", i, got[i], k)
		}
	}
}

// A crash at the pre-append site tears the frame: replay truncates the torn
// tail once, reports the loss, and a second replay is clean and identical.
func TestTornTailTruncatedThenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteJournalAppendPre, 2)
	w.CrashHook = c.Hook()
	for i := 0; i < 2; i++ {
		if err := w.Append(rec(1, uint64(i+1), "ok")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(rec(1, 3, "torn")); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed append = %v, want ErrCrash", err)
	}
	// The writer is dead: the simulated process is gone.
	if err := w.Append(rec(1, 4, "late")); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("post-crash append = %v, want ErrCrash", err)
	}
	w.Close()

	count := func() (int, ReplayStats) {
		n := 0
		stats, err := Replay(path, func(r *Record) error {
			if r.Kernel == "torn" || r.Kernel == "late" {
				t.Fatalf("non-durable record %q replayed", r.Kernel)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, stats
	}
	n, stats := count()
	if n != 2 || !stats.Truncated || stats.TruncatedBytes == 0 {
		t.Fatalf("first replay: n=%d stats=%+v, want 2 records and a cut tail", n, stats)
	}
	n, stats = count()
	if n != 2 || stats.Truncated {
		t.Fatalf("second replay: n=%d stats=%+v, want clean idempotent replay", n, stats)
	}
}

// A crash at the post-append site leaves the record durable — the caller
// dies before acking, but replay must deliver it.
func TestPostAppendCrashIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteJournalAppendPost, 1)
	w.CrashHook = c.Hook()
	if err := w.Append(rec(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(1, 2, "durable-unacked")); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed append = %v, want ErrCrash", err)
	}
	w.Close()
	var got []string
	stats, err := Replay(path, func(r *Record) error {
		got = append(got, r.Kernel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Truncated {
		t.Fatalf("stats = %+v, want both records durable", stats)
	}
	if got[1] != "durable-unacked" {
		t.Fatalf("records = %v", got)
	}
}

// AppendBatch is a pure group commit: the on-disk bytes are identical to the
// same records appended one at a time, so every replay consumer (recovery,
// adoption, migration) reads batched journals with no format awareness.
func TestAppendBatchBytesMatchSingles(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.slate")
	batched := filepath.Join(dir, "batched.slate")
	recs := []*Record{rec(1, 1, "a"), rec(1, 2, "b"), rec(1, 3, "c"), rec(1, 4, "d")}

	ws, err := OpenWriter(single)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := ws.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ws.Close()

	wb, err := OpenWriter(batched)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if wb.Records() != len(recs) {
		t.Fatalf("Records() = %d after a %d-record batch", wb.Records(), len(recs))
	}
	wb.Close()

	sb, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(batched)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb) == 0 || string(sb) != string(bb) {
		t.Fatalf("batched journal bytes differ from singles (%d vs %d bytes)", len(bb), len(sb))
	}
}

// A crash mid-batch leaves a torn prefix: some records whole, the next frame
// cut, nothing synced. Replay keeps the whole prefix, truncates the tear, and
// the writer is dead afterwards.
func TestAppendBatchMidCrashTornPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteJournalBatchMid, 0)
	w.CrashHook = c.Hook()
	batch := []*Record{rec(1, 1, "p1"), rec(1, 2, "p2"), rec(1, 3, "cut"), rec(1, 4, "lost")}
	if err := w.AppendBatch(batch); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed batch append = %v, want ErrCrash", err)
	}
	if err := w.AppendBatch(batch[:1]); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("post-crash batch append = %v, want ErrCrash (writer dead)", err)
	}
	w.Close()

	var got []string
	stats, err := Replay(path, func(r *Record) error {
		got = append(got, r.Kernel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want a cut tail", stats)
	}
	if len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("torn-prefix replay = %v, want the whole prefix [p1 p2]", got)
	}
	// Idempotent: the truncation must not change what a second replay sees.
	stats, err = Replay(path, func(*Record) error { return nil })
	if err != nil || stats.Records != 2 || stats.Truncated {
		t.Fatalf("second replay = %+v, %v, want 2 clean records", stats, err)
	}
}

// A crash after the batch's single fsync leaves every record durable — the
// group commit is all-or-nothing past the sync point.
func TestAppendBatchPostCrashAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteJournalBatchPost, 0)
	w.CrashHook = c.Hook()
	batch := []*Record{rec(1, 1, "a"), rec(1, 2, "b"), rec(1, 3, "c")}
	if err := w.AppendBatch(batch); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed batch append = %v, want ErrCrash", err)
	}
	w.Close()
	var got []string
	stats, err := Replay(path, func(r *Record) error {
		got = append(got, r.Kernel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Truncated {
		t.Fatalf("stats = %+v, want all 3 records durable", stats)
	}
	if got[2] != "c" {
		t.Fatalf("records = %v", got)
	}
}

// An empty batch is a no-op, not an error or an fsync.
func TestAppendBatchEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("Records() = %d after empty batch", w.Records())
	}
	w.Close()
}

// Reset empties the journal after compaction; later appends start fresh.
func TestResetAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(rec(1, uint64(i+1), "pre")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("Records() = %d after reset", w.Records())
	}
	if err := w.Append(rec(1, 9, "post")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got []string
	if _, err := Replay(path, func(r *Record) error { got = append(got, r.Kernel); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "post" {
		t.Fatalf("replay after reset = %v, want only the post-reset record", got)
	}
}

type ckpt struct {
	N int `json:"n"`
}

// A crash mid-checkpoint leaves the previous checkpoint intact and an
// orphan temp file recovery removes.
func TestCheckpointCrashKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.slate")
	if err := WriteCheckpoint(path, &ckpt{N: 1}, nil); err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteCheckpointMid, 0)
	if err := WriteCheckpoint(path, &ckpt{N: 2}, c.Hook()); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed checkpoint write = %v, want ErrCrash", err)
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatal("crash mid-checkpoint left no temp evidence")
	}
	var v ckpt
	ok, err := ReadCheckpoint(path, &v)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint = %v, %v", ok, err)
	}
	if v.N != 1 {
		t.Fatalf("checkpoint N = %d, want the previous value 1", v.N)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("orphan temp file survived recovery")
	}
}

// A corrupt checkpoint is quarantined to .bad and reported absent — the
// journal still holds everything since the last good compaction.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.slate")
	if err := WriteCheckpoint(path, &ckpt{N: 7}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var v ckpt
	ok, err := ReadCheckpoint(path, &v)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupt checkpoint loaded")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatal("corrupt checkpoint was not quarantined to .bad")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still in place")
	}
}

// A checkpoint larger than ipc.MaxFramePayload comes back: compaction
// publishes it and then resets the journal, so a reader that refused it
// would lose every session it held.
func TestCheckpointOverMaxFramePayloadRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.slate")
	big := struct{ S string }{strings.Repeat("s", ipc.MaxFramePayload+1)}
	if err := WriteCheckpoint(path, &big, nil); err != nil {
		t.Fatal(err)
	}
	var back struct{ S string }
	ok, err := ReadCheckpoint(path, &back)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint = %v, %v; a published checkpoint must load", ok, err)
	}
	if back.S != big.S {
		t.Fatalf("payload came back with %d bytes, want %d", len(back.S), len(big.S))
	}
	if _, err := os.Stat(path + ".bad"); !os.IsNotExist(err) {
		t.Fatal("a good checkpoint was quarantined")
	}
}

// A header that declares more bytes than the file holds is quarantined
// without allocating them, whether it overshoots by one byte or by 4 GiB.
func TestCheckpointLyingLengthQuarantined(t *testing.T) {
	for _, declared := range []uint32{3, math.MaxUint32} {
		path := filepath.Join(t.TempDir(), "c.slate")
		frame := ipc.AppendFrame(nil, []byte("{}"))
		binary.LittleEndian.PutUint32(frame, declared)
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		var v ckpt
		ok, err := ReadCheckpoint(path, &v)
		if err != nil || ok {
			t.Fatalf("declared %d: ReadCheckpoint = %v, %v; want quarantined", declared, ok, err)
		}
		if _, err := os.Stat(path + ".bad"); err != nil {
			t.Fatalf("declared %d: checkpoint was not quarantined to .bad", declared)
		}
	}
}

// A missing journal is an empty journal, not an error.
func TestMissingJournalIsEmpty(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "absent.slate"), func(*Record) error {
		t.Fatal("record from a missing file")
		return nil
	})
	if err != nil || stats.Records != 0 || stats.Truncated {
		t.Fatalf("Replay(missing) = %+v, %v", stats, err)
	}
}
