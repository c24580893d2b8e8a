package daemon_test

import (
	"os"
	"path/filepath"
	"testing"

	"slate/internal/daemon"
	"slate/internal/ipc"
)

// End-to-end coverage for the journal's filesystem edge paths, driven
// through EnableDurability rather than the journal package directly: a
// daemon must come up correctly over an empty directory, over a directory
// holding a crashed checkpoint's temp file, and over a corrupted
// checkpoint — and in the last case the damage must cost exactly the
// checkpointed state, never the journal's.

// Recovery over a state dir that exists but holds nothing is a cold start:
// zero recovered state, no invented files beyond the fresh journal, and a
// fully functional daemon.
func TestRecoveryOverEmptyStateDir(t *testing.T) {
	dir := t.TempDir()
	srv, dial, stats := durableServer(t, dir, 2)
	defer srv.CloseDurability()
	if stats.Sessions != 0 || stats.DedupOps != 0 || stats.Replayed != 0 || stats.Lost != 0 || stats.CheckpointLoaded {
		t.Fatalf("cold start recovered phantom state: %+v", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, daemon.JournalFile)); err != nil {
		t.Fatalf("cold start did not create the journal: %v", err)
	}
	conn := ipc.NewConn(dial())
	defer conn.Close()
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "cold", Seq: 1}); rep.Err != "" || rep.Token == 0 {
		t.Fatalf("hello on cold daemon = %+v", rep)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if rep := call(t, conn, launch); rep.Err != "" {
		t.Fatalf("launch on cold daemon: %v", rep.Err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync on cold daemon: %v", rep.Err)
	}
}

// A crash between writing checkpoint.slate.tmp and renaming it leaves the
// temp file as an orphan. The next startup must discard it — it was never
// published — and recover from the real checkpoint + journal as if the
// orphan were not there.
func TestRecoveryRemovesCheckpointTmpOrphan(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	conn := ipc.NewConn(dial1())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "orphan", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if rep := call(t, conn, launch); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	conn.Close()
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "checkpoint.slate"+".tmp")
	if err := os.WriteFile(orphan, []byte("half-written snapshot that never renamed"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, stats := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	if stats.Sessions != 1 {
		t.Fatalf("recovered %d sessions alongside the orphan, want 1", stats.Sessions)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("checkpoint temp orphan survived recovery: stat err=%v", err)
	}
	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	if rep := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Proc: "orphan", Seq: 1}); rep.Err != "" || !rep.Recovered {
		t.Fatalf("resume after orphan cleanup = %+v", rep)
	}
}

// Corrupting the published checkpoint must cost exactly the checkpointed
// state: the damaged file is quarantined to .bad, sessions that lived only
// in it are gone, but every journal record appended after the compaction
// still recovers. The blast radius is one file, not the directory.
func TestCorruptCheckpointQuarantineCostsOnlyCheckpointedState(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1 := daemon.NewLocal(2)
	// open + accept + profile + complete = 4 records: the first session's
	// synced launch triggers exactly one compaction, then the second
	// session's open lands in the fresh journal, after the checkpoint.
	if _, err := srv1.EnableDurability(daemon.Durability{Dir: dir, NoSync: true, CompactEvery: 4}); err != nil {
		t.Fatal(err)
	}
	connA := ipc.NewConn(dial1())
	helloA := call(t, connA, &ipc.Request{Op: ipc.OpHello, Proc: "ckpt-bound", Seq: 1})
	launch := sourceLaunch(1)
	launch.Seq = 2
	if rep := call(t, connA, launch); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep := call(t, connA, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	connA.Close()
	waitIdle(t, srv1)
	connB := ipc.NewConn(dial1())
	helloB := call(t, connB, &ipc.Request{Op: ipc.OpHello, Proc: "journal-bound", Seq: 1})
	if helloB.Err != "" {
		t.Fatal(helloB.Err)
	}
	connB.Close()
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "checkpoint.slate")
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("compaction never published a checkpoint: %v", err)
	}
	for i := len(blob) / 2; i < len(blob)/2+8 && i < len(blob); i++ {
		blob[i] ^= 0xFF
	}
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, stats := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	if stats.CheckpointLoaded {
		t.Fatal("corrupt checkpoint reported as loaded")
	}
	if _, err := os.Stat(ckpt + ".bad"); err != nil {
		t.Fatalf("corrupt checkpoint was not quarantined to .bad: %v", err)
	}
	if stats.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want exactly the journal-bound one", stats.Sessions)
	}
	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	// The journal-bound session survived in full …
	if rep := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: helloB.Token, Proc: "journal-bound", Seq: 1}); rep.Err != "" || !rep.Recovered {
		t.Fatalf("journal-bound resume = %+v, want Recovered", rep)
	}
	conn2.Close()
	// … and the checkpoint-bound one was the entire cost: its token falls
	// back to a fresh session instead of wedging the daemon.
	conn3 := ipc.NewConn(dial2())
	defer conn3.Close()
	if rep := call(t, conn3, &ipc.Request{Op: ipc.OpResume, SessionToken: helloA.Token, Proc: "ckpt-bound", Seq: 1}); rep.Err != "" || rep.Recovered {
		t.Fatalf("checkpoint-bound resume = %+v, want fresh fallback", rep)
	}
}
