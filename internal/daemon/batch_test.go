package daemon_test

import (
	"strings"
	"testing"

	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/policy"
)

func batchSrcItem(opID uint64, kernel string) ipc.BatchItem {
	return ipc.BatchItem{
		Src: true, OpID: opID, Kernel: kernel,
		Source: "__global__ void " + kernel + "(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }",
		GridX:  4, GridY: 1, BlockX: 32, BlockY: 1, TaskSize: 4,
	}
}

// A batched frame accepts every item with one ack; a raw re-send of the same
// frame under the same op IDs is answered entirely from the dedup window —
// every ack flagged Dup, no second execution.
func TestBatchAcceptAndRawResendDedup(t *testing.T) {
	srv, dial, _ := durableServer(t, t.TempDir(), 2)
	defer srv.CloseDurability()
	conn := ipc.NewConn(dial())
	defer conn.Close()
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "batch", Seq: 1}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	batch := []ipc.BatchItem{batchSrcItem(1, "bk1"), batchSrcItem(2, "bk2"), batchSrcItem(3, "bk3")}
	rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 2})
	if rep.Err != "" {
		t.Fatalf("batch: %v", rep.Err)
	}
	if len(rep.Acks) != len(batch) {
		t.Fatalf("got %d acks for %d items", len(rep.Acks), len(batch))
	}
	for i, a := range rep.Acks {
		if a.Code != 0 || a.Dup {
			t.Fatalf("ack %d = %+v, want a fresh accept", i, a)
		}
		if a.OpID != batch[i].OpID {
			t.Fatalf("ack %d carries op %d, want %d (submission order)", i, a.OpID, batch[i].OpID)
		}
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}

	// The same frame again — the lost-batch-ack retry.
	rep = call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 4})
	if rep.Err != "" {
		t.Fatalf("re-sent batch: %v", rep.Err)
	}
	for i, a := range rep.Acks {
		if a.Code != 0 || !a.Dup {
			t.Fatalf("re-sent ack %d = %+v, want the stored ack with Dup", i, a)
		}
	}
	if srv.DedupHits() != len(batch) {
		t.Fatalf("DedupHits = %d, want %d", srv.DedupHits(), len(batch))
	}
	for _, k := range []string{"bk1", "bk2", "bk3"} {
		if got := srv.Exec.Runs("src:" + k); got != 1 {
			t.Fatalf("%s ran %d times, want exactly 1", k, got)
		}
	}
}

// Dedup comes first for both submission forms: on a poisoned session whose
// quota is nearly spent, a re-sent op — alone or as a whole batch — is still
// answered from the window, while any frame carrying fresh work gets the
// sticky error.
func TestReplayOnPoisonedSessionIsAnsweredFromWindow(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionPending = 3
	if _, err := srv.EnableDurability(daemon.Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	// Profiled as L_C, the held kernel and the panicker corun by Table I; a
	// first run would run alone, and the panicker would wait on the gate.
	srv.Exec.RestoreProfile("held", policy.LC, 1e-3)
	srv.Exec.RestoreProfile("panicker", policy.LC, 1e-3)
	conn := ipc.NewConn(dial())
	defer conn.Close()
	seq := uint64(0)
	do := func(req *ipc.Request) *ipc.Reply {
		t.Helper()
		seq++
		req.Seq = seq
		return call(t, conn, req)
	}
	if rep := do(&ipc.Request{Op: ipc.OpHello, Proc: "poisoned"}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	gate := make(chan struct{})
	item := func(op uint64, stream int, spec *kern.Spec) ipc.BatchItem {
		return ipc.BatchItem{Token: srv.Specs.Put(spec), Stream: stream, OpID: op}
	}
	single := func(it ipc.BatchItem) *ipc.Request {
		return &ipc.Request{Op: ipc.OpLaunch, Token: it.Token, Stream: it.Stream, OpID: it.OpID}
	}
	held1, held2 := item(1, 1, gatedKernel("held", gate)), item(2, 1, gatedKernel("held", gate))
	bad := item(3, 2, panickingSpec("panicker"))
	for _, it := range []ipc.BatchItem{held1, held2, bad} {
		if rep := do(single(it)); rep.Err != "" {
			t.Fatalf("op %d: %s", it.OpID, rep.Err)
		}
	}
	if rep := do(&ipc.Request{Op: ipc.OpSynchronize, Stream: 2}); rep.Code != ipc.CodeOf(ipc.ErrKernelPanic) {
		t.Fatalf("sync of the panicked stream = %+v, want CodeKernelPanic", rep)
	}

	// Poisoned, two of three quota units held. A fresh launch is refused...
	if rep := do(single(item(4, 2, quickKernel("fresh")))); rep.Code != ipc.CodeOf(ipc.ErrKernelPanic) {
		t.Fatalf("fresh single on a poisoned session = %+v, want the sticky error", rep)
	}
	// ...a replayed single is answered from the window...
	if rep := do(single(bad)); rep.Err != "" || !rep.Dup {
		t.Fatalf("replayed single = %+v, want the stored ack with Dup", rep)
	}
	// ...and so is a replayed batch, although three items would not fit the quota.
	rep := do(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: []ipc.BatchItem{held1, held2, bad}})
	if rep.Err != "" || len(rep.Acks) != 3 {
		t.Fatalf("replayed batch = %+v, want three acks from the window", rep)
	}
	for i, a := range rep.Acks {
		if a.Code != 0 || !a.Dup {
			t.Fatalf("replayed ack %d = %+v, want the stored ack with Dup", i, a)
		}
	}
	// One fresh item makes the frame fresh work: refused whole.
	rep = do(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: []ipc.BatchItem{bad, item(5, 2, quickKernel("fresh"))}})
	if rep.Code != ipc.CodeOf(ipc.ErrKernelPanic) || len(rep.Acks) != 0 {
		t.Fatalf("batch with a fresh item on a poisoned session = %+v, want the sticky error and no acks", rep)
	}
	close(gate)
	if rep := do(&ipc.Request{Op: ipc.OpSynchronize, Stream: -1}); rep.Code != ipc.CodeOf(ipc.ErrKernelPanic) {
		t.Fatalf("device sync = %+v, want the sticky error", rep)
	}
	if got := srv.DedupHits(); got != 5 {
		t.Fatalf("DedupHits = %d, want 5", got)
	}
	for name, want := range map[string]int{"held": 2, "panicker": 1, "fresh": 0} {
		if got := srv.Exec.Runs(name); got != want {
			t.Fatalf("%s ran %d times, want %d", name, got, want)
		}
	}
}

// Admission is whole-batch: a batch that does not fit under the session's
// pending quota is refused entirely with a typed backpressure code, and no
// item of it executes.
func TestBatchBackpressureRefusesWholeBatch(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.MaxSessionPending = 2
	conn := ipc.NewConn(dial())
	defer conn.Close()
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "bp", Seq: 1}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	batch := []ipc.BatchItem{
		batchSrcItem(1, "bp1"), batchSrcItem(2, "bp2"),
		batchSrcItem(3, "bp3"), batchSrcItem(4, "bp4"),
	}
	rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 2})
	if rep.Code != ipc.CodeBackpressure {
		t.Fatalf("oversized batch = code %d (%s), want CodeBackpressure", rep.Code, rep.Err)
	}
	if len(rep.Acks) != 0 {
		t.Fatalf("refused batch returned %d acks", len(rep.Acks))
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	for _, k := range []string{"bp1", "bp2", "bp3", "bp4"} {
		if got := srv.Exec.Runs("src:" + k); got != 0 {
			t.Fatalf("%s ran %d times under a refused batch", k, got)
		}
	}
}

// Per-item verdicts: an item whose prepare fails (unknown kernel) is rejected
// in its own ack while the rest of the batch is accepted and runs.
func TestBatchPerItemRejectionDoesNotSinkBatch(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	conn := ipc.NewConn(dial())
	defer conn.Close()
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "mixed", Seq: 1}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	bad := ipc.BatchItem{
		Src: true, OpID: 2, Kernel: "missing",
		Source: "__global__ void other(float *x, int n) {}",
		GridX:  4, GridY: 1, BlockX: 32, BlockY: 1, TaskSize: 4,
	}
	unstamped := batchSrcItem(0, "nostamp")
	batch := []ipc.BatchItem{batchSrcItem(1, "good"), bad, unstamped}
	rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 2})
	if rep.Err != "" {
		t.Fatalf("mixed batch: %v", rep.Err)
	}
	if a := rep.Acks[0]; a.Code != 0 {
		t.Fatalf("good item rejected: %+v", a)
	}
	if a := rep.Acks[1]; a.Code == 0 || !strings.Contains(a.Err, "missing") {
		t.Fatalf("bad item ack = %+v, want a per-item rejection naming the kernel", a)
	}
	if a := rep.Acks[2]; a.Code == 0 || !strings.Contains(a.Err, "op ID") {
		t.Fatalf("unstamped item ack = %+v, want the stamping rejection", a)
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	if got := srv.Exec.Runs("src:good"); got != 1 {
		t.Fatalf("accepted item ran %d times, want 1", got)
	}
	for _, k := range []string{"missing", "other", "nostamp"} {
		if got := srv.Exec.Runs("src:" + k); got != 0 {
			t.Fatalf("rejected item %s ran %d times", k, got)
		}
	}
}

// Recovery replays group-committed accept records exactly like singly
// appended ones: a daemon restarted over a journal written by batched
// dispatch re-executes the accepted-incomplete items once each, and the
// resumed session dedups their re-sends.
func TestRecoveryReplaysBatchedRecords(t *testing.T) {
	dir := t.TempDir()
	srv1, dial1, _ := durableServer(t, dir, 2)
	conn := ipc.NewConn(dial1())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "rb", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	batch := []ipc.BatchItem{batchSrcItem(1, "rb1"), batchSrcItem(2, "rb2")}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 2}); rep.Err != "" {
		t.Fatalf("batch: %v", rep.Err)
	}
	// Vanish without a synchronize; session teardown drains the lane, which
	// group-commits the completions before it retires. The journal now holds
	// only batch-written records for these ops.
	conn.Close()
	waitIdle(t, srv1)
	if err := srv1.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, stats := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	if stats.Sessions != 1 || stats.DedupOps != 2 {
		t.Fatalf("recovered stats = %+v, want 1 session carrying 2 dedup ops", stats)
	}
	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	res := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Proc: "rb", Seq: 1})
	if res.Err != "" || !res.Recovered {
		t.Fatalf("resume = %+v, want Recovered", res)
	}
	// Re-send the batch under the original IDs: answered from the window.
	rep := call(t, conn2, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch, Seq: 2})
	if rep.Err != "" {
		t.Fatalf("replayed batch: %v", rep.Err)
	}
	for i, a := range rep.Acks {
		if !a.Dup || a.Code != 0 {
			t.Fatalf("replayed ack %d = %+v, want stored accept with Dup", i, a)
		}
	}
	if rep := call(t, conn2, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 3}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	// Exactly once across both incarnations: the group-committed completions
	// were durable, so recovery replays nothing and the deduped re-sends
	// execute nothing — each kernel ran only in incarnation 1.
	if stats.Replayed != 0 {
		t.Fatalf("recovery re-executed %d completed launches", stats.Replayed)
	}
	for _, k := range []string{"rb1", "rb2"} {
		if got := srv2.Exec.Runs("src:" + k); got != 0 {
			t.Fatalf("%s: %d incarnation-2 runs of a completed launch", k, got)
		}
	}
}
