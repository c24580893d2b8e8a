package daemon

import (
	"errors"
	"net"
	"testing"
	"time"

	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/leakcheck"
)

// serveRaw runs one session of srv over a pipe and returns its client end,
// a call function that numbers requests and fails the test on any refusal,
// and a channel closed when ServeConn has returned.
func serveRaw(t *testing.T, srv *Server) (*ipc.Conn, func(*ipc.Request) *ipc.Reply, <-chan struct{}) {
	clientSide, serverSide := net.Pipe()
	served := make(chan struct{})
	go func() { srv.ServeConn(serverSide); close(served) }()
	conn, seq := ipc.NewConn(clientSide), uint64(0)
	return conn, func(req *ipc.Request) *ipc.Reply {
		t.Helper()
		seq++
		req.Seq = seq
		if err := conn.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		rep, err := conn.RecvReply()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != "" {
			t.Fatalf("%v: %s", req.Op, rep.Err)
		}
		return rep
	}, served
}

// Lanes are bound by the streams that have work, not by the streams a session
// has ever used: while launches are held there is exactly one lane per busy
// stream, and once they settle there is none — after
// 1 000 distinct stream IDs the session holds no lane, no lane goroutine and
// no pending quota, and every completion is in the journal.
func TestLanesRetire(t *testing.T) {
	srv := NewServer(2)
	if _, err := srv.EnableDurability(Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	ss := &session{id: 1}
	st, err := srv.openSession(ss, "lanes")
	if err != nil {
		t.Fatal(err)
	}
	ss.resume = st
	dp := newDispatcher(srv, ss)
	base := leakcheck.Snapshot()

	gate := make(chan struct{})
	spec := slowKernel("lane-kernel", 1, 0)
	spec.Exec = func(int) { <-gate }
	const streams, perFrame = 1000, 40
	op := uint64(0)
	submit := func(first int) {
		t.Helper()
		items, acks := make([]ipc.BatchItem, perFrame), make([]ipc.BatchAck, perFrame)
		for i := range items {
			op++
			items[i] = ipc.BatchItem{Token: srv.Specs.Put(spec), Stream: first + i, OpID: op}
			acks[i].OpID = op
		}
		if died, refusal := srv.launchFrame(dp, items, acks, 0); refusal != nil || died {
			t.Fatalf("frame at stream %d: refusal %v, died %v", first, refusal, died)
		}
	}

	// Held launches: one lane per busy stream.
	submit(0)
	dp.mu.Lock()
	held := len(dp.lanes)
	dp.mu.Unlock()
	if held != perFrame {
		t.Fatalf("%d lanes for %d busy streams", held, perFrame)
	}
	if got := ss.pending.Load(); got != perFrame {
		t.Fatalf("pending = %d with %d launches held", got, perFrame)
	}
	close(gate)
	dp.wait(-1)

	for first := perFrame; first < streams; first += perFrame {
		submit(first)
		dp.wait(-1)
	}
	if n := len(dp.lanes); n != 0 {
		t.Fatalf("%d lanes left after a device synchronize", n)
	}
	leakcheck.Check(t, base)
	if p, tot := ss.pending.Load(), srv.totalPending.Load(); p != 0 || tot != 0 {
		t.Fatalf("pending quota not released: session %d, daemon %d", p, tot)
	}
	if got := srv.Exec.Runs("lane-kernel"); got != streams {
		t.Fatalf("executor ran %d of %d launches", got, streams)
	}
	if st.MaxOp != streams || len(st.Window) != DedupWindow {
		t.Fatalf("window: MaxOp %d, %d entries", st.MaxOp, len(st.Window))
	}
	for _, e := range st.Window {
		if !e.Done {
			t.Fatalf("op %d: lane retired before its completion was journaled", e.OpID)
		}
	}
}

// An abrupt disconnect with work queued on three lanes: teardown drains every
// lane, the completions reach the journal, and nothing is left behind.
func TestLanesDrainOnDisconnect(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(2)
	if _, err := srv.EnableDurability(Durability{Dir: dir, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Snapshot()
	conn, call, served := serveRaw(t, srv)
	call(&ipc.Request{Op: ipc.OpHello, Proc: "vanishes"})

	gate := make(chan struct{})
	spec := slowKernel("orphan-kernel", 1, 0)
	spec.Exec = func(int) { <-gate }
	var batch []ipc.BatchItem
	for op := uint64(1); op <= 6; op++ { // two launches on each of streams 1, 2, 3
		batch = append(batch, ipc.BatchItem{Token: srv.Specs.Put(spec), Stream: 1 + int(op%3), OpID: op})
	}
	call(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch})
	call(&ipc.Request{Op: ipc.OpLaunch, Token: srv.Specs.Put(spec), Stream: 3, OpID: 7})
	conn.Close()
	close(gate)
	<-served

	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions after teardown", n)
	}
	if tot := srv.totalPending.Load(); tot != 0 {
		t.Fatalf("%d launches still pending daemon-wide", tot)
	}
	if got := srv.Exec.Runs("orphan-kernel"); got != 7 {
		t.Fatalf("executor ran %d of 7 queued launches", got)
	}
	leakcheck.Check(t, base)
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	ls, _, _, err := loadDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := ls.bySess[1]
	if got == nil || len(got.Window) != 7 {
		t.Fatalf("recovered session = %+v, want 7 journaled launches", got)
	}
	for _, e := range got.Window {
		if !e.Done {
			t.Fatalf("op %d has no completion record: teardown did not drain its lane", e.OpID)
		}
	}
}

// What a stream synchronize promises, for both submission forms: when it has
// returned, every launch on that stream ran and its completion record is in
// the journal. The daemon fsyncs for real here, so a lane that let the sync
// return ahead of its group commit would be caught with the commit in flight.
func TestSynchronizeStreamMeansJournaled(t *testing.T) {
	const src = `__global__ void sk(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }`
	const launches = 5
	for _, form := range []string{"singles", "batch"} {
		t.Run(form, func(t *testing.T) {
			srv := NewServer(2)
			if _, err := srv.EnableDurability(Durability{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			defer srv.CloseDurability()
			conn, call, _ := serveRaw(t, srv)
			defer conn.Close()
			sess := call(&ipc.Request{Op: ipc.OpHello, Proc: form}).Session
			var batch []ipc.BatchItem
			for op := uint64(1); op <= launches; op++ {
				batch = append(batch, ipc.BatchItem{
					Src: true, Source: src, Kernel: "sk", Stream: 7, OpID: op,
					GridX: 4, GridY: 1, BlockX: 32, BlockY: 1, TaskSize: 4,
				})
			}
			if form == "batch" {
				call(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch})
			} else {
				for _, it := range batch {
					call(&ipc.Request{
						Op: ipc.OpLaunchSource, Source: it.Source, Kernel: it.Kernel, Stream: it.Stream, OpID: it.OpID,
						GridX: it.GridX, GridY: it.GridY, BlockX: it.BlockX, BlockY: it.BlockY, TaskSize: it.TaskSize,
					})
				}
			}
			call(&ipc.Request{Op: ipc.OpSynchronize, Stream: 7})

			d := srv.durable
			d.mu.Lock()
			defer d.mu.Unlock()
			st := d.tab.bySess[sess]
			if st == nil || len(st.Window) != launches {
				t.Fatalf("session state = %+v, want %d journaled launches", st, launches)
			}
			for _, e := range st.Window {
				if !e.Done {
					t.Fatalf("stream sync returned before op %d's completion record was journaled", e.OpID)
				}
			}
		})
	}
}

// slowKernel's blocks each sleep briefly, so total runtime comfortably
// exceeds a containment deadline while every worker remains responsive
// between pulls (no stranded goroutines).
func slowKernel(name string, blocks int, perBlock time.Duration) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(blocks), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) { time.Sleep(perBlock) },
	}
}

// The wall-clock deadline abandons a stuck launch on the profiling path and
// leaves the executor healthy for the next kernel.
func TestExecutorDeadlineAbandonsProfilingRun(t *testing.T) {
	x := NewExecutor(2)
	x.MaxRunSeconds = 0.05
	err := x.Run(slowKernel("stuck", 400, 2*time.Millisecond), 1)
	if !errors.Is(err, ErrKernelTimeout) {
		t.Fatalf("err = %v, want ErrKernelTimeout", err)
	}
	if _, ok := x.Profile("stuck"); ok {
		t.Fatal("timed-out profiling run was classified")
	}
	// The executor still runs healthy kernels afterwards.
	if err := x.Run(slowKernel("ok", 4, 0), 1); err != nil {
		t.Fatalf("healthy kernel after timeout: %v", err)
	}
	if x.RunningCount() != 0 {
		t.Fatalf("running = %d, want 0", x.RunningCount())
	}
}

// The deadline also abandons a profiled kernel mid-dispatch: the task is
// removed from the running set and the budget rebalances to survivors.
func TestExecutorDeadlineAbandonsDispatchRun(t *testing.T) {
	x := NewExecutor(2)
	// Profile under the name with a fast body first.
	if err := x.Run(slowKernel("turns-slow", 8, 0), 1); err != nil {
		t.Fatal(err)
	}
	x.MaxRunSeconds = 0.05
	start := time.Now()
	err := x.Run(slowKernel("turns-slow", 400, 2*time.Millisecond), 1)
	if !errors.Is(err, ErrKernelTimeout) {
		t.Fatalf("err = %v, want ErrKernelTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("abandonment took %v; deadline not enforced promptly", elapsed)
	}
	if x.RunningCount() != 0 {
		t.Fatalf("abandoned task still in running set")
	}
}

// The vanilla (hardware-scheduler) path is contained by the same deadline.
func TestExecutorDeadlineAbandonsVanillaRun(t *testing.T) {
	x := NewExecutor(2)
	x.MaxRunSeconds = 0.05
	err := x.RunVanilla(slowKernel("vstuck", 400, 2*time.Millisecond), 1)
	if !errors.Is(err, ErrKernelTimeout) {
		t.Fatalf("err = %v, want ErrKernelTimeout", err)
	}
}
