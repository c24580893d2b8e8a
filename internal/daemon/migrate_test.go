package daemon_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"slate/internal/daemon"
	"slate/internal/ipc"
)

// A drained source hands its sessions to the destination: the token
// reattaches there, the dedup window answers replays without a second
// execution, and a restart over the source directory recovers nothing.
func TestMigrateSessionsMovesDurableImage(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, sdial, _ := durableServer(t, srcDir, 2)
	src.TokenSeed = 0 // set pre-durability in durableServer; fine for one member
	dst, ddial, _ := durableServer(t, dstDir, 2)
	dst.TokenSeed = 7 // distinct stream, like a second fleet member
	defer dst.CloseDurability()

	conn := ipc.NewConn(sdial())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "mig", Seq: 1})
	if hello.Err != "" || hello.Token == 0 {
		t.Fatalf("hello = %+v", hello)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if rep := call(t, conn, launch); rep.Err != "" {
		t.Fatalf("launch: %v", rep.Err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	conn.Close() // client detaches; the session stays resumable
	waitIdle(t, src)

	if err := src.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var handed []uint64
	stats, err := src.MigrateSessions(dst, func(tok uint64) { handed = append(handed, tok) })
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if stats.Sessions != 1 || stats.DedupOps != 1 || stats.Replayed != 0 || stats.Lost != 0 ||
		stats.Conflicts != 0 || stats.Profiles != 1 {
		t.Fatalf("stats = %+v, want 1 session, 1 dedup op and 1 profile moved, nothing replayed, lost or conflicting", stats)
	}
	if len(handed) != 1 || handed[0] != hello.Token {
		t.Fatalf("handoff notes = %x, want [%x]", handed, hello.Token)
	}
	if got := src.ResumeTokens(); len(got) != 0 {
		t.Fatalf("source still homes %x after migration", got)
	}

	// The session lives on the destination: same token, replay answered from
	// the moved dedup window, zero re-execution.
	conn2 := ipc.NewConn(ddial())
	defer conn2.Close()
	res := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Proc: "mig", Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume on destination = %+v, want Recovered", res)
	}
	replay := sourceLaunch(1)
	replay.Seq = 2
	if rep := call(t, conn2, replay); rep.Err != "" || !rep.Dup {
		t.Fatalf("replay on destination = %+v, want stored ack with Dup", rep)
	}
	if runs := dst.Exec.Runs("src:rk"); runs != 0 {
		t.Fatalf("migrated completed launch re-executed %d times", runs)
	}

	// Restarting the source over its own directory must find nothing: the
	// session-migrate tombstones are durable.
	if err := src.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	srv2, _, rstats := durableServer(t, srcDir, 2)
	defer srv2.CloseDurability()
	if rstats.Sessions != 0 || rstats.Replayed != 0 {
		t.Fatalf("restarted source recovers %+v — double-home risk", rstats)
	}
}

// Adoption tombstones what it adopts. Once AdoptState returns, the sessions
// have one home: a daemon restarted over the adopted directory recovers none
// of them, whoever called AdoptState (the fleet supervisor, or slated
// -adopt-state), and the moved files still digest for audit.
func TestAdoptStateTombstonesTheDir(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, sdial, _ := durableServer(t, srcDir, 2)
	conn := ipc.NewConn(sdial())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "adopt", Seq: 1})
	if hello.Err != "" || hello.Token == 0 {
		t.Fatalf("hello = %+v", hello)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if rep := call(t, conn, launch); rep.Err != "" {
		t.Fatalf("launch: %v", rep.Err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	conn.Close()
	waitIdle(t, src)
	src.Kill() // the fence adoption requires
	if err := src.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	before, err := daemon.StateDigest(srcDir)
	if err != nil {
		t.Fatal(err)
	}

	dst, _, _ := durableServer(t, dstDir, 2)
	dst.TokenSeed = 7
	defer dst.CloseDurability()
	stats, err := dst.AdoptState(srcDir)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if stats.Sessions != 1 || stats.DedupOps != 1 || stats.Replayed != 0 || stats.Lost != 0 ||
		stats.Conflicts != 0 || stats.Profiles != 1 {
		t.Fatalf("stats = %+v, want 1 session, 1 dedup op and 1 profile adopted, nothing replayed, lost or conflicting", stats)
	}
	if got := dst.ResumeTokens(); len(got) != 1 || got[0] != hello.Token {
		t.Fatalf("adopter homes %x, want [%x]", got, hello.Token)
	}

	restarted, _, rstats := durableServer(t, srcDir, 2)
	defer restarted.CloseDurability()
	if rstats.Sessions != 0 || rstats.DedupOps != 0 {
		t.Fatalf("a restart over the adopted dir recovers %+v — token %x homed twice", rstats, hello.Token)
	}
	after, err := daemon.StateDigest(filepath.Join(srcDir, "adopted"))
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("tombstoned files no longer digest as the victim's state\n got:\n%s\nwant:\n%s", after, before)
	}
}

// A retried migration (destination already has the token from a crashed
// earlier handoff) counts a conflict, keeps the destination's copy, and
// still tombstones the source copy.
func TestMigrateSessionsRetryIsIdempotent(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, sdial, _ := durableServer(t, srcDir, 2)
	dst, _, _ := durableServer(t, dstDir, 2)
	dst.TokenSeed = 7
	defer dst.CloseDurability()

	conn := ipc.NewConn(sdial())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "mig2", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	conn.Close()
	waitIdle(t, src)
	if err := src.Drain(time.Second); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: the destination already adopted this token
	// (as AdoptState over the source dir would), the source tombstone never
	// landed.
	if _, err := dst.AdoptState(srcDir); err != nil {
		t.Fatalf("pre-adopt: %v", err)
	}
	stats, err := src.MigrateSessions(dst, nil)
	if err != nil {
		t.Fatalf("retried migrate: %v", err)
	}
	if stats.Sessions != 0 || stats.Conflicts != 1 {
		t.Fatalf("retry stats = %+v, want 1 conflict", stats)
	}
	if got := src.ResumeTokens(); len(got) != 0 {
		t.Fatalf("conflicted session not tombstoned on source: %x", got)
	}
	if err := src.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// Migration is refused without durability on both ends, and onto itself.
func TestMigrateSessionsRequiresDurablePair(t *testing.T) {
	dir := t.TempDir()
	src, _, _ := durableServer(t, dir, 2)
	defer src.CloseDurability()
	vol := daemon.NewServer(2)
	if _, err := src.MigrateSessions(vol, nil); err == nil {
		t.Fatal("migration onto a volatile daemon must be refused")
	}
	if _, err := vol.MigrateSessions(src, nil); err == nil {
		t.Fatal("migration off a volatile daemon must be refused")
	}
	if _, err := src.MigrateSessions(src, nil); err == nil {
		t.Fatal("self-migration must be refused")
	}
}

// The protocol-version handshake: a skewed client is refused with the typed
// code on both Hello and Resume; legacy (version 0) peers still connect.
func TestVersionSkewRefused(t *testing.T) {
	srv, dial, _ := durableServer(t, t.TempDir(), 2)
	defer srv.CloseDurability()
	srv.ProtocolVersion = ipc.ProtocolVersion + 1

	conn := ipc.NewConn(dial())
	rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "skew", Seq: 1, Version: ipc.ProtocolVersion})
	if rep.Code != ipc.CodeOf(ipc.ErrVersionSkew) {
		t.Fatalf("skewed hello = %+v, want CodeVersionSkew", rep)
	}
	conn.Close()

	conn2 := ipc.NewConn(dial())
	rep = call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: 42, Proc: "skew", Seq: 1, Version: ipc.ProtocolVersion})
	if rep.Code != ipc.CodeOf(ipc.ErrVersionSkew) {
		t.Fatalf("skewed resume = %+v, want CodeVersionSkew", rep)
	}
	conn2.Close()

	// A hello that stamps no version (the field is left off the frame) is
	// accepted.
	conn3 := ipc.NewConn(dial())
	defer conn3.Close()
	if rep := call(t, conn3, &ipc.Request{Op: ipc.OpHello, Proc: "legacy", Seq: 1}); rep.Err != "" {
		t.Fatalf("legacy hello refused: %+v", rep)
	}
	if !errors.Is(daemon.ErrVersionSkew, daemon.ErrVersionSkew) {
		t.Fatal("unreachable")
	}
}
