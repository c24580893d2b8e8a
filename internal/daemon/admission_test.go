package daemon_test

import (
	"errors"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/kern"
)

// gatedKernel blocks every Exec on the gate channel, holding the launch
// in-flight until the test releases it.
func gatedKernel(name string, gate <-chan struct{}) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) { <-gate },
	}
}

func quickKernel(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

// waitFor polls a condition until it holds or two seconds pass (session
// teardown runs after the OpClose reply, so drained state is eventual).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A session at its pending-launch bound gets ErrBackpressure; once the
// queue drains, launches are admitted again and the session ends clean.
func TestBackpressureRejectsFloodingSession(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionPending = 2
	cli, err := client.Local(srv, dial, "flood")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if err := cli.Launch(gatedKernel("a", gate), 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Launch(gatedKernel("b", gate), 1); err != nil {
		t.Fatal(err)
	}
	err = cli.Launch(gatedKernel("c", gate), 1)
	if !errors.Is(err, client.ErrBackpressure) {
		t.Fatalf("third launch err = %v, want ErrBackpressure", err)
	}
	close(gate)
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	// Quota released: admitted again.
	if err := cli.Launch(quickKernel("d"), 1); err != nil {
		t.Fatalf("launch after drain: %v", err)
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejected launch's spec deposit to be purged", func() bool {
		return srv.Specs.Len() == 0
	})
}

// The daemon-wide cap counts the frame, like the per-session one: with one
// slot left a batch of 8 is refused whole — nothing of it runs, the daemon
// never holds more than the cap — and a single launch takes the slot.
func TestDaemonWideAdmissionCountsTheFrame(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxTotalPending = 16
	srv.AgingBound = time.Hour // no aging override inside this test
	holder, err := client.Local(srv, dial, "holder")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	for i := 0; i < srv.MaxTotalPending-1; i++ {
		if err := holder.Launch(gatedKernel("hold", gate), 1); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := client.Local(srv, dial, "late")
	if err != nil {
		t.Fatal(err)
	}
	batch := cli.NewBatch()
	for i := 0; i < 8; i++ {
		if err := batch.Launch(quickKernel("batched"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if acks, err := batch.Submit(); !errors.Is(err, client.ErrBackpressure) || acks != nil {
		t.Fatalf("batch of 8 into one free slot: acks %v, err %v, want ErrBackpressure for the whole frame", acks, err)
	}
	if err := cli.Launch(quickKernel("single"), 1); err != nil {
		t.Fatalf("single launch into the free slot: %v", err)
	}
	close(gate)
	for _, c := range []*client.Client{holder, cli} {
		if err := c.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Exec.Runs("batched"); got != 0 {
		t.Fatalf("%d launches of the refused batch ran", got)
	}
	if got := srv.Exec.Runs("single"); got != 1 {
		t.Fatalf("the admitted single ran %d times", got)
	}
	waitFor(t, "the refused batch's spec deposits to be taken back", func() bool {
		return srv.Specs.Len() == 0
	})
}

// A session over its device-memory quota gets ErrQuota; freeing restores
// headroom.
func TestQuotaBoundsSessionMemory(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionBytes = 1 << 20
	cli, err := client.Local(srv, dial, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := cli.Malloc(700 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Malloc(700 << 10); !errors.Is(err, client.ErrQuota) {
		t.Fatalf("over-quota malloc err = %v, want ErrQuota", err)
	}
	if err := cli.Free(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := cli.Malloc(700 << 10)
	if err != nil {
		t.Fatalf("malloc after free: %v", err)
	}
	if err := cli.Free(b2); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// With WithBackpressureRetry, a backpressured launch succeeds once the
// daemon's queue drains within the backoff budget.
func TestBackpressureRetryRecovers(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionPending = 1
	cli, err := client.Local(srv, dial, "patient",
		client.WithBackpressureRetry(client.BackoffConfig{
			Attempts: 12, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if err := cli.Launch(gatedKernel("hold", gate), 1); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	// Immediately backpressured, then admitted once "hold" finishes.
	if err := cli.Launch(quickKernel("next"), 1); err != nil {
		t.Fatalf("retried launch failed: %v", err)
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// Repeated exhausted retries open the circuit: launches fail fast with
// ErrCircuitOpen instead of hammering the saturated daemon.
func TestCircuitOpensAfterRepeatedRejections(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionPending = 1
	cli, err := client.Local(srv, dial, "hammer",
		client.WithBackpressureRetry(client.BackoffConfig{
			Attempts: 1, BaseDelay: time.Millisecond, TripAfter: 2, Cooldown: 10 * time.Second, Seed: 3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if err := cli.Launch(gatedKernel("hog", gate), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := cli.Launch(quickKernel("x"), 1); !errors.Is(err, client.ErrBackpressure) {
			t.Fatalf("launch %d err = %v, want ErrBackpressure", i, err)
		}
	}
	// Circuit tripped: no round trip, fail fast.
	if err := cli.Launch(quickKernel("y"), 1); !errors.Is(err, client.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	close(gate)
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// Drain mode rejects new sessions and new work with ErrDraining, finishes
// in-flight launches, and returns with the daemon fully torn down.
func TestDrainRejectsNewWorkAndTerminates(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "old-timer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if err := cli.Launch(gatedKernel("inflight", gate), 1); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New sessions are refused.
	if _, err := client.Local(srv, dial, "late"); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("new session err = %v, want ErrDraining", err)
	}
	// New work on the old session is refused...
	if err := cli.Launch(quickKernel("denied"), 1); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("launch err = %v, want ErrDraining", err)
	}
	if _, err := cli.Malloc(64); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("malloc err = %v, want ErrDraining", err)
	}
	// ...but the in-flight launch finishes and the session winds down.
	close(gate)
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("sessions = %d after drain", n)
	}
	if srv.Registry.Len() != 0 || srv.Specs.Len() != 0 {
		t.Fatalf("leaked: %d buffers, %d specs", srv.Registry.Len(), srv.Specs.Len())
	}
}

// A client that never says goodbye is force-closed after the drain timeout;
// its session teardown still reclaims everything.
func TestDrainForceClosesStragglers(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "straggler")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Malloc(2048); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.Sessions() != 0 || srv.Registry.Len() != 0 {
		t.Fatalf("straggler not torn down: %d sessions, %d buffers", srv.Sessions(), srv.Registry.Len())
	}
	// The straggler's next call observes the dead transport.
	if _, err := cli.Malloc(64); err == nil {
		t.Fatal("call on force-closed session succeeded")
	}
}

// Close and Drain return with a launch still pending: Close waits for its
// launch to run, and a drain force-closes a session that never says goodbye,
// whose teardown waits for its launch.
func TestCloseAndDrainReturnWithALaunchPending(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	closer, err := client.Local(srv, dial, "closer")
	if err != nil {
		t.Fatal(err)
	}
	straggler, err := client.Local(srv, dial, "straggler")
	if err != nil {
		t.Fatal(err)
	}
	if err := closer.Launch(slowKernel2("pending-close", 20, time.Millisecond), 1); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("close with a launch pending: %v", err)
	}
	if runs := srv.Exec.Runs("pending-close"); runs != 1 {
		t.Fatalf("Close returned with its launch run %d times, want 1", runs)
	}
	if err := straggler.Launch(slowKernel2("pending-drain", 20, time.Millisecond), 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(500 * time.Millisecond); err != nil {
		t.Fatalf("drain with a launch pending: %v", err)
	}
	if runs := srv.Exec.Runs("pending-drain"); runs != 1 || srv.Sessions() != 0 || srv.Specs.Len() != 0 {
		t.Fatalf("after the drain: launch run %d times, %d sessions, %d specs", runs, srv.Sessions(), srv.Specs.Len())
	}
}

// A containment timeout is sticky for the session, like a panic.
func TestKernelTimeoutPoisonsSession(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.Exec.MaxRunSeconds = 0.05
	cli, err := client.Local(srv, dial, "hog")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Launch(slowKernel2("crawler", 400, 2*time.Millisecond), 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Synchronize(); !errors.Is(err, client.ErrKernelTimeout) {
		t.Fatalf("sync err = %v, want ErrKernelTimeout", err)
	}
	if err := cli.Launch(quickKernel("after"), 1); !errors.Is(err, client.ErrKernelTimeout) {
		t.Fatalf("post-timeout launch err = %v, want sticky ErrKernelTimeout", err)
	}
	_ = cli.Close()
	waitFor(t, "session resources to be reclaimed", func() bool {
		return srv.Registry.Len() == 0 && srv.Specs.Len() == 0
	})
}

// slowKernel2 mirrors the internal test helper for the external package.
func slowKernel2(name string, blocks int, perBlock time.Duration) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) { time.Sleep(perBlock) },
	}
}
