package daemon_test

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

const twoKernelSrc = `
__global__ void ka(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }
__global__ void kb(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 2.0f; }
`

// A translation unit is injected and compiled once per daemon, not once per
// launch or per session: N launches across two sessions and both kernels are
// one compile and N-1 hits, a second task size is a second compile, and a
// kernel the unit does not define is refused the same way whether the image
// was just built or came from the cache.
func TestSourceUnitIsPreparedOncePerDaemon(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	var clis [2]*client.Client
	for i := range clis {
		c, err := client.Local(srv, dial, "unit")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clis[i] = c
	}
	if _, err := clis[0].LaunchSource(twoKernelSrc, "nope", kern.D1(4), kern.D1(32), 4); err == nil ||
		!strings.Contains(err.Error(), "not found after injection") {
		t.Fatalf("missing kernel on a cold unit = %v", err)
	}
	const n = 12
	for i := 1; i < n; i++ {
		kernel := [2]string{"ka", "kb"}[i%2]
		entries, degraded, err := clis[i%2].LaunchSourceDegraded(twoKernelSrc, kernel, kern.D1(4), kern.D1(32), 4)
		if err != nil || degraded {
			t.Fatalf("launch %d: degraded=%v err=%v", i, degraded, err)
		}
		if len(entries) != 4 { // two workers and their dispatchers
			t.Fatalf("launch %d entries = %v", i, entries)
		}
	}
	if compiles, hits := srv.Compiler.Stats(); compiles != 1 || hits != n-1 {
		t.Fatalf("stats = (%d, %d) after %d launches of one unit, want (1, %d)", compiles, hits, n, n-1)
	}
	if _, err := clis[1].LaunchSource(twoKernelSrc, "nope", kern.D1(4), kern.D1(32), 4); err == nil ||
		!strings.Contains(err.Error(), "not found after injection") {
		t.Fatalf("missing kernel on a cached unit = %v", err)
	}
	if _, err := clis[0].LaunchSource(twoKernelSrc, "ka", kern.D1(4), kern.D1(32), 8); err != nil {
		t.Fatal(err)
	}
	if compiles, _ := srv.Compiler.Stats(); compiles != 2 {
		t.Fatalf("compiles = %d after a second task size, want 2", compiles)
	}
	for _, c := range clis {
		if err := c.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := srv.Exec.Runs("src:ka"), srv.Exec.Runs("src:kb"); a+b != n {
		t.Fatalf("executor ran ka %d + kb %d times, want %d in all", a, b, n)
	}
}

// journalSize is how many bytes the daemon has appended to its journal.
func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, daemon.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// codeMalformed is the wire code of a refused, self-contradicting frame: the
// code of what ipc's own check returns for an op stamped twice.
var codeMalformed = ipc.CodeOf(ipc.CheckOpOrder([]ipc.BatchItem{{OpID: 1}, {OpID: 1}}))

// A frame whose SrcRef does not name an earlier source-carrying item is
// refused whole and typed: no acks, nothing journaled, nothing executed, and
// the session stays usable — including for a frame that spells every source
// out, which is what a client that never interns sends.
func TestBatchBadSrcRefRefusesWholeFrame(t *testing.T) {
	dir := t.TempDir()
	srv, dial, _ := durableServer(t, dir, 2)
	defer srv.CloseDurability()
	conn := ipc.NewConn(dial())
	defer conn.Close()
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "refs", Seq: 1, Version: ipc.ProtocolVersion}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	ref := func(opID uint64, n int) ipc.BatchItem {
		it := batchSrcItem(opID, "rf")
		it.Source, it.SrcRef = "", n
		return it
	}
	spec := ipc.BatchItem{Token: 99, OpID: 1, TaskSize: 4}
	bad := map[string][]ipc.BatchItem{
		"forward":      {ref(1, 2), batchSrcItem(2, "rf")},
		"self":         {batchSrcItem(1, "rf"), ref(2, 2)},
		"onto a spec":  {spec, ref(2, 1)},
		"onto a ref":   {batchSrcItem(1, "rf"), ref(2, 1), ref(3, 2)},
		"out of range": {batchSrcItem(1, "rf"), ref(2, 33)},
		"negative":     {batchSrcItem(1, "rf"), ref(2, -1)},
	}
	before := journalSize(t, dir)
	seq := uint64(1)
	for name, items := range bad {
		seq++
		rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: items, Seq: seq})
		if rep.Code != codeMalformed || len(rep.Acks) != 0 {
			t.Errorf("%s: code %d (%s) with %d acks, want CodeMalformed and none", name, rep.Code, rep.Err, len(rep.Acks))
		}
	}
	if after := journalSize(t, dir); after != before {
		t.Fatalf("refused frames grew the journal by %d bytes", after-before)
	}
	if compiles, hits := srv.Compiler.Stats(); compiles+hits != 0 {
		t.Fatalf("refused frames reached the compiler: (%d, %d)", compiles, hits)
	}

	// Same op IDs, now well-formed: one interned item, two with full text.
	good := []ipc.BatchItem{batchSrcItem(1, "rf"), ref(2, 1), batchSrcItem(3, "rf")}
	rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: good, Seq: seq + 1})
	if rep.Err != "" || len(rep.Acks) != len(good) {
		t.Fatalf("well-formed frame after refusals: %q, %d acks", rep.Err, len(rep.Acks))
	}
	for i, a := range rep.Acks {
		if a.Code != 0 || a.Dup || a.Degraded {
			t.Fatalf("ack %d = %+v, want a fresh accept", i, a)
		}
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: seq + 2}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	if got := srv.Exec.Runs("src:rf"); got != len(good) {
		t.Fatalf("rf ran %d times, want %d", got, len(good))
	}
	if compiles, hits := srv.Compiler.Stats(); compiles != 1 || hits != len(good)-1 {
		t.Fatalf("stats = (%d, %d), want (1, %d)", compiles, hits, len(good)-1)
	}
	if journalSize(t, dir) == before {
		t.Fatal("accepted frame journaled nothing")
	}
}

// A frame whose stamped op IDs do not strictly ascend is refused whole and
// typed, like a bad source ref: the dedup check sees every item of a frame
// before any is accepted, so [5 5 7 6] would run op 5 twice and leave a
// replayed window without op 6. The same ops in order are accepted, run once
// each, and after a restart a re-send of op 6 gets its stored ack back.
func TestBatchOpIDsMustAscend(t *testing.T) {
	dir := t.TempDir()
	srv, dial, _ := durableServer(t, dir, 2)
	conn := ipc.NewConn(dial())
	hello := call(t, conn, &ipc.Request{Op: ipc.OpHello, Proc: "asc", Seq: 1})
	if hello.Err != "" {
		t.Fatal(hello.Err)
	}
	frame := func(ops ...uint64) []ipc.BatchItem {
		items := make([]ipc.BatchItem, len(ops))
		for i, op := range ops {
			items[i] = batchSrcItem(op, "asc")
		}
		return items
	}
	before := journalSize(t, dir)
	for i, ops := range [][]uint64{{5, 5, 7, 6}, {5, 7, 6}, {7, 0, 7}} {
		rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: frame(ops...), Seq: uint64(2 + i)})
		if rep.Code != codeMalformed || len(rep.Acks) != 0 {
			t.Fatalf("frame %v: code %d (%s) with %d acks, want CodeMalformed and none", ops, rep.Code, rep.Err, len(rep.Acks))
		}
	}
	if after := journalSize(t, dir); after != before {
		t.Fatalf("refused frames grew the journal by %d bytes", after-before)
	}
	rep := call(t, conn, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: frame(5, 6, 7), Seq: 10})
	if rep.Err != "" || len(rep.Acks) != 3 {
		t.Fatalf("ascending frame: %q, %d acks", rep.Err, len(rep.Acks))
	}
	if rep := call(t, conn, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1, Seq: 11}); rep.Err != "" {
		t.Fatalf("sync: %v", rep.Err)
	}
	if got := srv.Exec.Runs("src:asc"); got != 3 {
		t.Fatalf("asc ran %d times, want 3", got)
	}
	conn.Close()
	waitIdle(t, srv)
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	srv2, dial2, _ := durableServer(t, dir, 2)
	defer srv2.CloseDurability()
	conn2 := ipc.NewConn(dial2())
	defer conn2.Close()
	if res := call(t, conn2, &ipc.Request{Op: ipc.OpResume, SessionToken: hello.Token, Seq: 1}); !res.Recovered {
		t.Fatalf("resume = %+v, want Recovered", res)
	}
	rep = call(t, conn2, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: frame(6), Seq: 2})
	if rep.Err != "" || len(rep.Acks) != 1 || !rep.Acks[0].Dup || rep.Acks[0].Code != 0 {
		t.Fatalf("re-sent op 6 after restart: %q %+v, want its stored ack with Dup", rep.Err, rep.Acks)
	}
}

// BenchmarkLaunchSourceBatch32 is one op of the launch_source workload: a
// batch of 32 source launches alternating between the two kernels of
// examples/injection's translation unit, Submit, Synchronize —
// over a Unix socket as slated serves it, against a daemon that journals
// every accept and completion without waiting for the disk. It fails if the
// daemon compiled the unit more than once, which is the property the numbers
// depend on; CI runs it for that check, not for the time.
func BenchmarkLaunchSourceBatch32(b *testing.B) {
	unit, err := os.ReadFile("../inject/testdata/injection.cu")
	if err != nil {
		b.Fatal(err)
	}
	kernels := [2]struct {
		name        string
		grid, block kern.Dim3
	}{
		{"saxpy", kern.D2(4, 1), kern.D2(32, 1)},
		{"stencil2d", kern.D2(2, 2), kern.D2(16, 16)},
	}
	dir := b.TempDir()
	srv := daemon.NewServer(4)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: dir, NoSync: true, CompactEvery: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	defer srv.CloseDurability()
	sock := filepath.Join(dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		<-served
	}()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	cli, err := client.New(conn, "bench")
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := cli.NewBatch()
		for j := 0; j < 32; j++ {
			k := kernels[j%2]
			if err := batch.LaunchSource(string(unit), k.name, k.grid, k.block, 10); err != nil {
				b.Fatal(err)
			}
		}
		acks, err := batch.Submit()
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range acks {
			if a.Code != 0 || a.Dup || a.Degraded {
				b.Fatalf("ack %+v, want a fresh accept", a)
			}
		}
		if err := cli.Synchronize(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := cli.Close(); err != nil {
		b.Fatal(err)
	}
	if compiles, hits := srv.Compiler.Stats(); compiles != 1 || hits != 32*b.N-1 {
		b.Fatalf("compiler stats = (%d, %d) after %d launches of one unit, want (1, %d)", compiles, hits, 32*b.N, 32*b.N-1)
	}
}
