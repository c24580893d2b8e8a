package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

func quickSpec(name string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

// A batch submits N launches in one frame: every ack comes back accepted, in
// submission order, with monotonically increasing op IDs.
func TestBatchSubmitEndToEnd(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	c, err := Local(srv, dial, "batcher")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.NewBatch()
	for i := 0; i < 5; i++ {
		if err := b.LaunchStream(quickSpec("batch_e2e"), 4, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	acks, err := b.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != 5 {
		t.Fatalf("%d acks for 5 items", len(acks))
	}
	var last uint64
	for i, a := range acks {
		if a.Code != 0 || a.Dup {
			t.Fatalf("ack %d = %+v, want a fresh accept", i, a)
		}
		if a.OpID <= last {
			t.Fatalf("ack %d op %d not above predecessor %d", i, a.OpID, last)
		}
		last = a.OpID
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Exec.Runs("batch_e2e"); got != 5 {
		t.Fatalf("batch_e2e ran %d times, want 5", got)
	}
}

// A batch is single-shot, and an empty batch never touches the wire.
func TestBatchSubmitGuards(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	c, err := Local(srv, dial, "guards")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	empty := c.NewBatch()
	if acks, err := empty.Submit(); err != nil || acks != nil {
		t.Fatalf("empty submit = %v, %v", acks, err)
	}
	b := c.NewBatch()
	if err := b.Launch(quickSpec("once"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(); err == nil {
		t.Fatal("second submit of the same batch succeeded")
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent launches from many goroutines — single, streamed, and batched —
// interleave safely on the pipelined call path: every launch is accepted,
// executes exactly once, and the daemon sees no duplicate op IDs. Run under
// -race this also exercises the demuxed waiter map and the pump election.
func TestConcurrentLaunchesSingleAndBatched(t *testing.T) {
	srv, dial := daemon.NewLocal(4)
	srv.MaxSessionPending = 100
	dir := t.TempDir()
	if _, err := srv.EnableDurability(daemon.Durability{Dir: dir, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	c, err := Local(srv, dial, "conc")
	if err != nil {
		t.Fatal(err)
	}

	const (
		singles      = 4 // goroutines launching one at a time
		batchers     = 4 // goroutines submitting batches
		perGoroutine = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, singles+batchers)
	for g := 0; g < singles; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("conc_s%d", g)
			for i := 0; i < perGoroutine; i++ {
				if err := c.LaunchStream(quickSpec(name), 4, g); err != nil {
					errs <- fmt.Errorf("%s launch %d: %w", name, i, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("conc_b%d", g)
			for half := 0; half < 2; half++ {
				b := c.NewBatch()
				for i := 0; i < perGoroutine/2; i++ {
					if err := b.LaunchStream(quickSpec(name), 4, singles+g); err != nil {
						errs <- fmt.Errorf("%s build: %w", name, err)
						return
					}
				}
				acks, err := b.Submit()
				if err != nil {
					errs <- fmt.Errorf("%s submit: %w", name, err)
					return
				}
				for _, a := range acks {
					if a.Code != 0 || a.Dup {
						errs <- fmt.Errorf("%s ack %+v", name, a)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	// Exactly once per launch, and no op was ever mistaken for a duplicate —
	// the interleaved stamping kept daemon-visible op IDs strictly fresh.
	for g := 0; g < singles; g++ {
		if got := srv.Exec.Runs(fmt.Sprintf("conc_s%d", g)); got != perGoroutine {
			t.Fatalf("conc_s%d ran %d times, want %d", g, got, perGoroutine)
		}
	}
	for g := 0; g < batchers; g++ {
		if got := srv.Exec.Runs(fmt.Sprintf("conc_b%d", g)); got != perGoroutine {
			t.Fatalf("conc_b%d ran %d times, want %d", g, got, perGoroutine)
		}
	}
	if hits := srv.DedupHits(); hits != 0 {
		t.Fatalf("%d dedup hits on an all-fresh workload", hits)
	}
	if pend := c.PendingOps(); len(pend) != 0 {
		t.Fatalf("pending ops %v after a clean run", pend)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// Regression (breaker probe leak): a launch admitted through the half-open
// circuit that is then canceled mid-backoff must release its probe slot.
// Before the fix, the canceled call returned without settling or canceling
// the admit, so `probing` stayed true and every later admit failed with
// ErrCircuitOpen forever — the circuit could never close again.
func TestCanceledProbeReleasesHalfOpenSlot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c, err := New(backpressureDaemon(t), "probe-canceler",
		WithContext(ctx),
		WithBackpressureRetry(BackoffConfig{
			Attempts: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
			TripAfter: 1, Cooldown: 10 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	src := `__global__ void k(float *x, int n) {}`
	// Trip the circuit: one retry-exhausted launch.
	if _, _, err := c.LaunchSourceDegraded(src, "k", kern.D1(4), kern.D1(32), 4); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("tripping launch = %v, want ErrBackpressure", err)
	}
	if !c.bp.open {
		t.Fatal("circuit did not open")
	}
	time.Sleep(15 * time.Millisecond) // past the cooldown: next launch probes

	// The probe gets backpressured, then the context cancels mid-backoff.
	cancel()
	if _, _, err := c.LaunchSourceDegraded(src, "k", kern.D1(4), kern.D1(32), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled probe = %v, want context.Canceled", err)
	}

	// The probe slot must be free again: the next launch must reach the
	// daemon (and report backpressure), not fail fast with ErrCircuitOpen.
	c.ctx = context.Background()
	_, _, err = c.LaunchSourceDegraded(src, "k", kern.D1(4), kern.D1(32), 4)
	if errors.Is(err, ErrCircuitOpen) {
		t.Fatal("canceled probe leaked its half-open slot: circuit wedged open")
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("post-cancel probe = %v, want ErrBackpressure from the daemon", err)
	}
}

// Regression (wrong-seq reply): a reply whose Seq matches no in-flight call
// means the framing is desynchronized. The client must poison the transport
// AND note the in-flight stamped launch as pending — before the fix the
// pending note was skipped, so Resume silently dropped the launch instead of
// replaying it under its original op ID.
func TestWrongSeqReplyPoisonsAndKeepsPending(t *testing.T) {
	a, b := net.Pipe()
	go func() {
		conn := ipc.NewConn(b)
		for {
			req, err := conn.RecvRequest()
			if err != nil {
				return
			}
			rep := &ipc.Reply{Seq: req.Seq, Session: 1}
			if req.Op == ipc.OpLaunchSource {
				rep.Seq = req.Seq + 1000 // a reply nobody asked for
			}
			if err := conn.SendReply(rep); err != nil {
				return
			}
		}
	}()
	c, err := New(a, "desync")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.LaunchSourceDegraded(`__global__ void k(float *x, int n) {}`, "k", kern.D1(4), kern.D1(32), 4)
	if !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("desynced launch = %v, want ErrDaemonDown", err)
	}
	// Poisoned: nothing else can use the transport.
	if _, err := c.Malloc(16); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("call after desync = %v, want ErrDaemonDown", err)
	}
	// And the launch's fate is tracked for Resume replay.
	pend := c.PendingOps()
	if len(pend) != 1 || pend[0] != 1 {
		t.Fatalf("pending ops after desync = %v, want [1]", pend)
	}
}

// A wrong-seq poisoned client Resumes against a durable daemon and replays
// the pending launch under its original op ID — exactly once end to end.
func TestWrongSeqPendingReplaysOnResume(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()

	// A corrupting proxy: real daemon behind it, but the first launch reply
	// comes back with a mangled seq.
	cliSide, proxySide := net.Pipe()
	go func() {
		up := ipc.NewConn(dial())
		defer up.Close() // drops the daemon-side session so Resume can adopt it
		down := ipc.NewConn(proxySide)
		for {
			req, err := down.RecvRequest()
			if err != nil {
				return
			}
			if err := up.SendRequest(req); err != nil {
				return
			}
			rep, err := up.RecvReply()
			if err != nil {
				return
			}
			if req.Op == ipc.OpLaunchSource {
				rep.Seq = req.Seq + 1000
			}
			if err := down.SendReply(rep); err != nil {
				return
			}
		}
	}()
	c, err := New(cliSide, "desync-resume")
	if err != nil {
		t.Fatal(err)
	}
	src := `__global__ void rk(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }`
	if _, _, err := c.LaunchSourceDegraded(src, "rk", kern.D1(4), kern.D1(32), 4); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("desynced launch = %v, want ErrDaemonDown", err)
	}
	// Tear down the proxy and wait for the daemon to detach the dead session,
	// so Resume adopts the durable state instead of opening a fresh session.
	cliSide.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("daemon never detached the proxied session")
		}
		time.Sleep(time.Millisecond)
	}
	recovered, err := c.Resume(func() (net.Conn, error) { return dial(), nil }, RetryConfig{Attempts: 3})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !recovered {
		t.Fatal("resume lost durable state")
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	// The launch the daemon accepted (before the proxy mangled the ack) was
	// deduped on replay, not re-executed.
	if got := srv.Exec.Runs("src:rk"); got != 1 {
		t.Fatalf("replayed launch ran %d times, want exactly 1", got)
	}
	if len(c.PendingOps()) != 0 {
		t.Fatalf("pending ops %v after resume replay", c.PendingOps())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// Unsynchronized-read audit regression: Session, Token, PendingOps, and
// launches race a concurrent Resume. Under -race this fails if any accessor
// reads client state without the lock (Session() used to).
func TestConcurrentAccessorsDuringResume(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	nc := dial()
	c, err := New(nc, "accessors", WithShared(srv.Registry, srv.Specs))
	if err != nil {
		t.Fatal(err)
	}
	nc.Close() // the transport dies; the next ops fail and Resume heals
	for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("daemon never detached the dead session")
		}
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Session()
				_ = c.Token()
				_ = c.PendingOps()
			}
		}()
	}
	if _, err := c.Malloc(16); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("malloc on dead transport = %v, want ErrDaemonDown", err)
	}
	recovered, err := c.Resume(func() (net.Conn, error) { return dial(), nil }, RetryConfig{Attempts: 3})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !recovered {
		t.Fatal("durable resume lost state")
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	if c.Session() == 0 {
		t.Fatal("no session after resume")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
