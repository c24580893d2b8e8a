package daemon_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// durableServer builds a durable daemon over dir with fsync disabled (the
// tests restart repeatedly).
func durableServer(t *testing.T, dir string, budget int) (*daemon.Server, func() net.Conn, *daemon.RecoveryStats) {
	t.Helper()
	srv, dial := daemon.NewLocal(budget)
	stats, err := srv.EnableDurability(daemon.Durability{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return srv, dial, stats
}

const recoverySrc = `__global__ void rk(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 2.0f; }`

// sourceLaunch is a frame of one source launch.
func sourceLaunch(opID uint64) *ipc.Request {
	return &ipc.Request{Op: ipc.OpLaunchBatch, Batch: []ipc.BatchItem{{
		Src: true, Source: recoverySrc, Kernel: "rk",
		GridX: 4, GridY: 1, BlockX: 32, BlockY: 1, TaskSize: 4, OpID: opID,
	}}}
}

// launchErr is the refusal of a frame of one: the frame's, or its item's.
func launchErr(rep *ipc.Reply) string {
	switch {
	case rep.Err != "":
		return rep.Err
	case len(rep.Acks) != 1:
		return fmt.Sprintf("%d acks for a frame of one", len(rep.Acks))
	}
	return rep.Acks[0].Err
}

// dupAck reports whether a frame of one was answered with its stored ack.
func dupAck(rep *ipc.Reply) bool {
	return launchErr(rep) == "" && rep.Acks[0].Dup
}

// A durable hello mints a resume token; a volatile daemon does not.
func TestDurableHelloMintsToken(t *testing.T) {
	srv, dial, _ := durableServer(t, t.TempDir(), 2)
	defer srv.CloseDurability()
	conn := ipc.NewConn(dial())
	defer conn.Close()
	rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "tok", Seq: 1})
	if rep.Err != "" || rep.Token == 0 {
		t.Fatalf("durable hello = %+v, want a nonzero token", rep)
	}

	vol, vdial := daemon.NewLocal(2)
	_ = vol
	vconn := ipc.NewConn(vdial())
	defer vconn.Close()
	if rep := call(t, vconn, &ipc.Request{Op: ipc.OpHello, Proc: "tok", Seq: 1}); rep.Token != 0 {
		t.Fatalf("volatile hello minted token %x", rep.Token)
	}
}

// Restarting the daemon over the same state directory recovers the session:
// the token reattaches it, a replayed op answers from the dedup window with
// the original ack, and the recovery stats report it all.
func TestResumeRecoversSessionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	conn := ipc.NewConn(dial1())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "app", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if err := launchErr(call(t, conn, launch)); err != "" {
		t.Fatalf("launch: %v", err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	conn.Close() // the client vanishes without OpClose
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, stats := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	if stats.Sessions != 1 || stats.DedupOps != 1 {
		t.Fatalf("recovered stats = %+v, want 1 session with 1 dedup op", stats)
	}

	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	res := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Proc: "app", Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume = %+v, want Recovered", res)
	}
	if res.Session != hello.Session || res.Token != hello.Token {
		t.Fatalf("resumed identity = (%d, %x), want (%d, %x)", res.Session, res.Token, hello.Session, hello.Token)
	}
	// The same op replayed: the original ack, flagged as a duplicate, and no
	// second execution.
	replay := sourceLaunch(1)
	replay.Seq = 2
	rep := call(t, conn2, replay)
	if !dupAck(rep) {
		t.Fatalf("replayed op = %+v, want the stored ack with Dup", rep)
	}
	if got := srv2.Exec.Runs("src:rk"); got != 0 {
		t.Fatalf("replayed op executed %d times in the new incarnation", got)
	}
	if srv2.DedupHits() != 1 {
		t.Fatalf("DedupHits = %d, want 1", srv2.DedupHits())
	}
	// A fresh op on the resumed session still works.
	fresh := sourceLaunch(2)
	fresh.Seq = 3
	if err := launchErr(call(t, conn2, fresh)); err != "" {
		t.Fatalf("fresh launch after resume: %v", err)
	}
	if rep := call(t, conn2, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 4}); rep.Err != "" {
		t.Fatalf("sync after resume: %v", rep.Err)
	}
}

// An unknown token resumes into a fresh session: Recovered stays false (the
// "state lost, run degraded" verdict) but the client is fully operational.
func TestResumeUnknownTokenFallsBackFresh(t *testing.T) {
	srv, dial, _ := durableServer(t, t.TempDir(), 2)
	defer srv.CloseDurability()
	conn := ipc.NewConn(dial())
	defer conn.Close()
	rep := call(t, conn, &ipc.Request{Op: ipc.OpResume, SessionToken: 0xdeadbeef, Proc: "lost", Seq: 1})
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep.Recovered {
		t.Fatal("unknown token reported Recovered")
	}
	if rep.Session == 0 || rep.Token == 0 {
		t.Fatalf("fresh fallback session = %+v", rep)
	}
}

// An accepted source launch without a completion record is re-executed
// exactly once by recovery; an in-process launch in the same position is
// reported lost, surfacing at the resumed session's next Synchronize.
func TestRecoveryReplaysSourceAndMarksInProcessLost(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	nc := dial1()
	cli, err := client.New(nc, "lost-test", client.WithShared(srv1.Registry, srv1.Specs))
	if err != nil {
		t.Fatal(err)
	}
	token := cli.Token()

	// An in-process launch that blocks until released: its accept record is
	// durable, its completion never is (the journal closes first).
	gate := make(chan struct{})
	var once sync.Once
	spec := &kern.Spec{
		Name: "blocker", Grid: kern.D1(2), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10, ComputeEff: 0.5,
		Exec: func(int) { <-gate },
	}
	if err := cli.Launch(spec, 1); err != nil {
		t.Fatal(err)
	}
	// Freeze durable state before the launch can complete, then release it.
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { close(gate) })
	nc.Close() // the client vanishes without OpClose
	waitIdle(t, srv1)

	srv2, dial2, stats := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	if stats.Lost != 1 || stats.Replayed != 0 {
		t.Fatalf("stats = %+v, want exactly one lost launch", stats)
	}
	conn := ipc.NewConn(dial2())
	defer conn.Close()
	res := call(t, conn, &ipc.Request{Op: ipc.OpResume, SessionToken: token, Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume = %+v", res)
	}
	sync := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 2})
	if !strings.Contains(sync.Err, "lost in crash") {
		t.Fatalf("first sync after lost launch = %+v, want the loss surfaced", sync)
	}
	// The loss is surfaced once; the session then proceeds.
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("second sync = %+v, want clean", rep)
	}
}

// A loss notice is durable until a resume hands it over. The daemon dies
// with an accepted in-process launch still running; restart 1 marks it lost
// and dies again before any client resumes and before a compaction; after
// restart 2 the resumed session's first Synchronize still reports the loss,
// and only the first. After a third restart, the notice stays surfaced.
func TestLossNoticeSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	cli, err := client.New(dial1(), "lost-twice", client.WithShared(srv1.Registry, srv1.Specs))
	if err != nil {
		t.Fatal(err)
	}
	token := cli.Token()
	gate := make(chan struct{})
	spec := &kern.Spec{
		Name: "blocker", Grid: kern.D1(2), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10, ComputeEff: 0.5,
		Exec: func(int) { <-gate },
	}
	if err := cli.Launch(spec, 1); err != nil {
		t.Fatal(err)
	}
	srv1.Kill() // dies before the launch completes
	close(gate)
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, _, stats := durableServer(t, dir, 2)
	if stats.Lost != 1 {
		t.Fatalf("restart 1 stats = %+v, want one lost launch", stats)
	}
	srv2.Kill() // dies again: no resume, no compaction
	if err := srv2.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	resumeAndSync := func(restart int, wantLoss bool) {
		t.Helper()
		srv, dial, stats := durableServer(t, dir, 2)
		if stats.Lost != 0 || stats.Sessions != 1 {
			t.Fatalf("restart %d stats = %+v, want the session back and nothing newly lost", restart, stats)
		}
		conn := ipc.NewConn(dial())
		if res := call(t, conn, &ipc.Request{Op: ipc.OpResume, SessionToken: token, Seq: 1}); !res.Recovered {
			t.Fatalf("restart %d: resume = %+v, want Recovered", restart, res)
		}
		first := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 2})
		if got := strings.Contains(first.Err, "lost in crash"); got != wantLoss {
			t.Fatalf("restart %d: first sync = %q, want the loss reported: %v", restart, first.Err, wantLoss)
		}
		if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
			t.Fatalf("restart %d: second sync = %q, want clean", restart, rep.Err)
		}
		conn.Close()
		waitIdle(t, srv)
		if err := srv.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
	resumeAndSync(2, true)
	resumeAndSync(3, false)
}

// A poisoned session (kernel panic) stays poisoned across a restart: the
// strike record persists and a resumed session fails launches sticky-style.
func TestPoisonSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	nc := dial1()
	cli, err := client.New(nc, "poisoned", client.WithShared(srv1.Registry, srv1.Specs))
	if err != nil {
		t.Fatal(err)
	}
	token := cli.Token()
	spec := &kern.Spec{
		Name: "panicker", Grid: kern.D1(2), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10, ComputeEff: 0.5,
		Exec: func(glob int) {
			if glob == 0 {
				panic("recovery-test: injected panic")
			}
		},
	}
	if err := cli.Launch(spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Synchronize(); !errors.Is(err, client.ErrKernelPanic) {
		t.Fatalf("sync after panic = %v, want ErrKernelPanic", err)
	}
	nc.Close() // abrupt vanish: detach, keep durable state
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, _ := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	conn := ipc.NewConn(dial2())
	defer conn.Close()
	res := call(t, conn, &ipc.Request{Op: ipc.OpResume, SessionToken: token, Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume = %+v", res)
	}
	launch := sourceLaunch(5)
	launch.Seq = 2
	rep := call(t, conn, launch)
	if rep.Code != ipc.CodeOf(ipc.ErrKernelPanic) {
		t.Fatalf("launch on resumed poisoned session = %+v, want CodeKernelPanic", rep)
	}
}

// Drain racing a mid-resume client: the resume gets a typed DRAINING
// refusal and its connection closes promptly — never a hang — and the
// drain itself terminates.
func TestDrainRacesResume(t *testing.T) {
	dir := t.TempDir()
	srv, dial, _ := durableServer(t, dir, 2)
	defer srv.CloseDurability()

	// Session A holds its connection open so the drain's polite phase is in
	// progress when the resume arrives.
	connA := ipc.NewConn(dial())
	defer connA.Close()
	if rep := call(t, connA, &ipc.Request{Op: ipc.OpHello, Proc: "holder", Seq: 1}); rep.Err != "" {
		t.Fatal(rep.Err)
	}

	// Session B establishes durable state, then vanishes — the resume
	// candidate.
	connB := ipc.NewConn(dial())
	helloB := call(t, connB, &ipc.Request{Op: ipc.OpHello, Proc: "resumer", Seq: 1})
	if helloB.Err != "" {
		t.Fatal(helloB.Err)
	}
	connB.Close()

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(500 * time.Millisecond) }()
	// Wait until drain mode is visibly on before racing the resume.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	connR := ipc.NewConn(dial())
	defer connR.Close()
	if err := connR.SendRequest(&ipc.Request{Op: ipc.OpResume, SessionToken: helloB.Token, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	_ = connR.SetReadDeadline(time.Now().Add(2 * time.Second))
	rep, err := connR.RecvReply()
	if err != nil {
		t.Fatalf("resume during drain: %v (refusal must be typed, not a hang)", err)
	}
	if rep.Code != ipc.CodeDraining {
		t.Fatalf("resume during drain = %+v, want CodeDraining", rep)
	}
	// The refused conn must not linger holding the drain open: the daemon
	// closes it after the refusal.
	_ = connR.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := connR.RecvReply(); err == nil {
		t.Fatal("refused resume conn stayed open")
	}

	select {
	case <-drainDone:
		// Force-close of the holder after the timeout is fine; the point is
		// termination.
	case <-time.After(5 * time.Second):
		t.Fatal("drain hung while racing a resume")
	}
}

// waitIdle polls the server's session count to zero.
// The record whose append crosses CompactEvery must keep its effect through
// the compaction it triggers. Here the launch-complete record is exactly the
// boundary record (open + accept + profile + complete = 4 = CompactEvery): if
// compaction snapshotted before the completion was installed, the checkpoint
// would carry the op as accepted-but-incomplete and a restart would execute
// the acked launch a second time.
func TestCompactionBoundaryKeepsCompletion(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1 := daemon.NewLocal(2)
	if _, err := srv1.EnableDurability(daemon.Durability{Dir: dir, NoSync: true, CompactEvery: 4}); err != nil {
		t.Fatal(err)
	}
	conn := ipc.NewConn(dial1())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "edge", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	launch := sourceLaunch(1)
	launch.Seq = 2
	if err := launchErr(call(t, conn, launch)); err != "" {
		t.Fatalf("launch: %v", err)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	conn.Close()
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, dial2 := daemon.NewLocal(2)
	stats, err := srv2.EnableDurability(daemon.Durability{Dir: dir, NoSync: true, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.CloseDurability()
	if stats.Replayed != 0 || stats.Lost != 0 {
		t.Fatalf("recovery replayed=%d lost=%d, want 0/0: the completed launch must not run again", stats.Replayed, stats.Lost)
	}
	if got := srv2.Exec.Runs("src:rk"); got != 0 {
		t.Fatalf("completed launch executed %d more times after restart", got)
	}
	// The original ack is still answerable from the recovered dedup window.
	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	res := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Proc: "edge", Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume = %+v, want Recovered", res)
	}
	replay := sourceLaunch(1)
	replay.Seq = 2
	if rep := call(t, conn2, replay); !dupAck(rep) {
		t.Fatalf("replayed op = %+v, want the stored ack with Dup", rep)
	}
}

func waitIdle(t *testing.T, srv *daemon.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions never drained: %d live", srv.Sessions())
	}
}
