package daemon_test

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// waitDrained polls until the daemon holds no session-owned state.
func waitDrained(t *testing.T, srv *daemon.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Sessions() == 0 && srv.Registry.Len() == 0 && srv.Specs.Len() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("daemon not drained: sessions=%d registry=%d specs=%d",
		srv.Sessions(), srv.Registry.Len(), srv.Specs.Len())
}

func panickingSpec(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(8), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
		ComputeEff: 0.5,
		Exec: func(glob int) {
			if glob == 0 {
				panic("bug in user kernel")
			}
		},
	}
}

func healthySpec(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(16), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

// A panicking kernel body must become a sticky launch error on its session —
// CUDA sticky-context semantics — while the daemon and every other session
// keep working.
func TestPanickingKernelIsStickyNotFatal(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "buggy")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Launch(panickingSpec("boom"), 2); err != nil {
		t.Fatal(err) // async: the panic surfaces at Synchronize
	}
	err = cli.Synchronize()
	if !errors.Is(err, daemon.ErrKernelPanic) {
		t.Fatalf("sync after panic = %v, want ErrKernelPanic", err)
	}
	// Sticky: the poisoned session rejects new launches immediately...
	if err := cli.Launch(healthySpec("after"), 2); !errors.Is(err, daemon.ErrKernelPanic) {
		t.Fatalf("launch on poisoned session = %v, want ErrKernelPanic", err)
	}
	// ...and keeps reporting at Synchronize (not cleared like normal errors).
	if err := cli.Synchronize(); !errors.Is(err, daemon.ErrKernelPanic) {
		t.Fatalf("second sync = %v, want sticky ErrKernelPanic", err)
	}
	_ = cli.Close()

	// The executor survives: a fresh session runs kernels normally.
	cli2, err := client.Local(srv, dial, "healthy")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli2.Launch(healthySpec("fresh"), 2); err != nil {
		t.Fatal(err)
	}
	if err := cli2.Synchronize(); err != nil {
		t.Fatalf("executor unusable after a panicking kernel: %v", err)
	}
	if err := cli2.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
}

// A client that exits without a final Synchronize still sees its async
// launch failure: the OpClose reply carries the pending error.
func TestCloseSurfacesPendingLaunchError(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "exits-early")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Launch(panickingSpec("boom-close"), 2); err != nil {
		t.Fatal(err)
	}
	// No Synchronize: Close alone must report the failure.
	if err := cli.Close(); !errors.Is(err, daemon.ErrKernelPanic) {
		t.Fatalf("close = %v, want ErrKernelPanic", err)
	}
	waitDrained(t, srv)
}

// A client that vanishes mid-launch leaks nothing: in-flight launches
// drain, owned buffers are released, and orphaned spec deposits are purged.
func TestDisconnectMidLaunchReclaimsEverything(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	conn := dial()
	cli, err := client.New(conn, "doomed", client.WithShared(srv.Registry, srv.Specs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	// A slow kernel that is still running when the client dies.
	slow := healthySpec("slow")
	slow.Exec = func(int) { time.Sleep(time.Millisecond) }
	if err := cli.Launch(slow, 2); err != nil {
		t.Fatal(err)
	}
	// An orphaned deposit: the spec entered the table but its launch
	// command never arrived (the client crashed between Put and send).
	srv.Specs.PutOwned(healthySpec("orphan"), cli.Session())
	if srv.Specs.Len() == 0 {
		t.Fatal("orphan not deposited")
	}
	conn.Close() // crash, mid-launch
	waitDrained(t, srv)
}

// Garbage and truncated frames on the command channel tear the session down
// cleanly instead of wedging or crashing the daemon.
func TestGarbageAndTruncatedFramesTearDownSession(t *testing.T) {
	srv := daemon.NewServer(2)

	// Garbage bytes where a frame should be: a non-minimal length header.
	a, b := net.Pipe()
	go srv.ServeConn(b)
	if _, err := a.Write([]byte("\xff\x00garbage-not-a-frame\x07\x03")); err != nil {
		t.Fatal(err)
	}
	a.Close()

	// A truncated but otherwise valid frame: encode a real request, send
	// half, then vanish.
	frame := wireFrame(t, &ipc.Request{Op: ipc.OpMalloc, Seq: 1, Size: 64})
	c, d := net.Pipe()
	go srv.ServeConn(d)
	if _, err := c.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	c.Close()

	waitDrained(t, srv)
}

// wireFrame is the bytes ipc.Conn writes for one request.
func wireFrame(t *testing.T, req *ipc.Request) []byte {
	t.Helper()
	a, b := net.Pipe()
	sent := make(chan error, 1)
	go func() {
		sent <- ipc.NewConn(a).SendRequest(req)
		a.Close()
	}()
	frame, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return frame
}

// A peer of protocol version 2 speaks gob. Its hello is not a frame of this
// version's codec, so it opens no session: the daemon sends nothing back,
// and the connection's session is torn down once the peer gives up.
func TestGobHelloFromAV2PeerOpensNoSession(t *testing.T) {
	srv := daemon.NewServer(2)
	a, b := net.Pipe()
	go srv.ServeConn(b)
	// gob's first bytes read as the length header of a frame of about 2 MiB,
	// so the daemon takes in the whole hello and waits for the rest.
	if err := gob.NewEncoder(a).Encode(&ipc.Request{Op: ipc.OpHello, Seq: 1, Proc: "v2-client", Version: 2}); err != nil {
		t.Fatal(err)
	}
	_ = a.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var ne net.Error
	if n, err := a.Read(make([]byte, 64)); n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("a v2 hello got %d bytes back (read error %v), want no reply", n, err)
	}
	a.Close()
	waitDrained(t, srv)
}

// Bad launch geometry must be an explicit error, not a silently dropped
// launch with a success reply.
func TestLaunchSourceBadGeometryIsExplicitError(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "badgeo")
	if err != nil {
		t.Fatal(err)
	}
	src := `__global__ void k(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }`
	// Zero grid: no runnable geometry.
	if _, err := cli.LaunchSource(src, "k", kern.Dim3{}, kern.D1(32), 4); err == nil {
		t.Fatal("zero-geometry launchSource replied success")
	} else if !strings.Contains(err.Error(), "invalid geometry") {
		t.Fatalf("zero-geometry error = %v", err)
	}
	// Block too large for a real device.
	if _, err := cli.LaunchSource(src, "k", kern.D1(4), kern.D1(2048), 4); err == nil {
		t.Fatal("oversized block accepted")
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
}

// When compilation fails transiently, a valid source kernel degrades to the
// untransformed vanilla path — it still runs — and the downgrade is
// recorded in the executor's decision log.
func TestCompileFailureDegradesToVanillaPath(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.Compiler.FailHook = func(string) error { return errors.New("transient compiler failure") }
	cli, err := client.Local(srv, dial, "degraded")
	if err != nil {
		t.Fatal(err)
	}
	src := `__global__ void k(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }`
	entries, degraded, err := cli.LaunchSourceDegraded(src, "k", kern.D1(8), kern.D1(32), 4)
	if err != nil {
		t.Fatalf("degradable launch failed outright: %v", err)
	}
	if !degraded {
		t.Fatal("launch not marked degraded")
	}
	if len(entries) != 1 || entries[0] != "k" {
		t.Fatalf("degraded entries = %v, want the untransformed kernel", entries)
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatalf("vanilla-path execution failed: %v", err)
	}
	found := false
	for _, d := range srv.Exec.Decisions() {
		if d.Kernel == "src:k" && d.Action == "vanilla" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no vanilla decision recorded; decisions = %+v", srv.Exec.Decisions())
	}
	// The failure was transient and was not cached: with the hook gone the
	// same unit compiles, and that launch runs the Slate path.
	srv.Compiler.FailHook = nil
	if _, degraded, err = cli.LaunchSourceDegraded(src, "k", kern.D1(8), kern.D1(32), 4); err != nil || degraded {
		t.Fatalf("launch after the hook cleared: degraded=%v err=%v", degraded, err)
	}
	if compiles, hits := srv.Compiler.Stats(); compiles != 1 || hits != 0 {
		t.Fatalf("stats = (%d, %d) after one failed and one good compile, want (1, 0)", compiles, hits)
	}
	// Garbage source must still fail: degradation is only for kernels that
	// would have run without Slate.
	if _, _, err := cli.LaunchSourceDegraded("int main() {}", "k", kern.D1(8), kern.D1(32), 4); err == nil {
		t.Fatal("kernel-free source degraded instead of failing")
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
}

// The same seed drives the same fault sequence end to end through the
// daemon: two identical hostile runs leave identical injector traces.
func TestSeededFaultRoundTripIsReproducible(t *testing.T) {
	run := func() (string, int) {
		inj := fault.New(fault.Config{Seed: 99, AllocFailProb: 0.4, CompileFailProb: 0.6})
		srv, dial := daemon.NewLocal(2)
		srv.Registry.AllocHook = inj.AllocHook()
		srv.Compiler.FailHook = inj.CompileHook()
		cli, err := client.Local(srv, dial, "replay")
		if err != nil {
			t.Fatal(err)
		}
		oom := 0
		for i := 0; i < 20; i++ {
			buf, err := cli.Malloc(256)
			if err != nil {
				if !errors.Is(err, client.ErrDeviceOOM) {
					t.Fatalf("malloc error not typed OOM: %v", err)
				}
				oom++
				continue
			}
			if err := cli.Free(buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		waitDrained(t, srv)
		return inj.Trace(), oom
	}
	trace1, oom1 := run()
	trace2, oom2 := run()
	if trace1 == "" || oom1 == 0 {
		t.Fatal("no faults fired; probabilities too low for the test to mean anything")
	}
	if trace1 != trace2 || oom1 != oom2 {
		t.Fatalf("same seed diverged:\nrun1 (%d OOM):\n%srun2 (%d OOM):\n%s", oom1, trace1, oom2, trace2)
	}
}

// A stream's lane is gone once its launches settle: cycling through many
// stream IDs cannot grow per-session daemon state without bound.
func TestManyStreamsDoNotWedgeSession(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "streams")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 300; s++ {
		if err := cli.LaunchStream(healthySpec("stream-kernel"), 2, s); err != nil {
			t.Fatal(err)
		}
		if s%50 == 0 {
			if err := cli.Synchronize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
}
