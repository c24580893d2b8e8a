package daemon_test

import (
	"testing"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/kern"
)

const specBatchKernel = "bench_noop"

// specSession is the launch workloads' set-up at test scale: an in-process
// daemon that journals every accept and completion without waiting for the
// disk (no fsync, no compaction), one client session on the pipe transport,
// and a no-op one-task kernel.
func specSession(tb testing.TB) (*daemon.Server, *client.Client, *kern.Spec) {
	tb.Helper()
	srv, dial := daemon.NewLocal(4)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: tb.TempDir(), NoSync: true, CompactEvery: 1 << 30}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.CloseDurability() })
	cli, err := client.Local(srv, dial, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	return srv, cli, &kern.Spec{
		Name: specBatchKernel, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

// specBatchSession returns the launch_batch workload's op on a specSession —
// a batch of 32 launches, Submit, every ack checked, Synchronize.
func specBatchSession(tb testing.TB) (srv *daemon.Server, op func(), closeSession func()) {
	tb.Helper()
	srv, cli, spec := specSession(tb)
	op = func() {
		batch := cli.NewBatch()
		for j := 0; j < 32; j++ {
			if err := batch.Launch(spec, 4); err != nil {
				tb.Fatal(err)
			}
		}
		acks, err := batch.Submit()
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range acks {
			if a.Code != 0 || a.Dup {
				tb.Fatalf("ack %+v, want a fresh accept", a)
			}
		}
		if err := cli.Synchronize(); err != nil {
			tb.Fatal(err)
		}
	}
	closeSession = func() {
		if err := cli.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, op, closeSession
}

// BenchmarkLaunchSpecBatch32 is one op of the launch_batch workload, so the
// durable launch path can be profiled with one command (-cpuprofile,
// -memprofile). It fails unless the executor ran every launch exactly once;
// CI runs it for that check, not for the time.
func BenchmarkLaunchSpecBatch32(b *testing.B) {
	srv, op, closeSession := specBatchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	closeSession()
	if got := srv.Exec.Runs(specBatchKernel); got != 32*b.N {
		b.Fatalf("executor ran %d launches, %d were acked", got, 32*b.N)
	}
	if hits := srv.DedupHits(); hits != 0 {
		b.Fatalf("%d dedup hits on a run that never re-sent", hits)
	}
}

// specBatchAllocBudget is what a warmed spec batch of 32 may allocate,
// client, wire and daemon together (go1.24, amd64). It was 990 before the
// launch path lost its per-launch reflection, window copy, Sprintf and
// goroutines, then 312 while the daemon still allocated nine objects per
// accepted launch, and measures 24 since it allocates none: its run state,
// its journal records and its dedup window entry are all reused. The budget
// is that plus half again, so that cost cannot come back unnoticed.
const specBatchAllocBudget = 36

func TestLaunchBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, op, closeSession := specBatchSession(t)
	for i := 0; i < 64; i++ { // past the profiling run and a full dedup window
		op()
	}
	if got := testing.AllocsPerRun(200, op); got > specBatchAllocBudget {
		t.Fatalf("a spec batch of 32 allocates %.0f times, budget %d", got, specBatchAllocBudget)
	}
	closeSession()
}

// singleLaunchAllocBudget is what one warmed client.Launch may allocate,
// client, wire and daemon together (go1.24, amd64). It measured 17.6 while
// the daemon allocated nine objects per accepted launch and the client one
// more for every launch that succeeded, and 7.3–8.2 since neither does;
// what is left is the client's call, the two frames, the reply, and the
// goroutine of a lane that went idle. The budget is that plus half again. A single launch is a frame of one, and the budget is there so
// that a frame's bookkeeping — scratch slices, a lane, a completion group —
// stays free for it.
const singleLaunchAllocBudget = 12

func TestSingleLaunchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	srv, cli, spec := specSession(t)
	// The launch_single workload's op: 32 launches, then Synchronize, whose
	// own allocations are counted against the launches' budget.
	const per = 32
	op := func() {
		for j := 0; j < per; j++ {
			if err := cli.Launch(spec, 4); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // past the profiling run and a full dedup window
		op()
	}
	const runs = 100
	got := testing.AllocsPerRun(runs, op) / per
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations per single launch", got)
	if got > singleLaunchAllocBudget {
		t.Fatalf("a single launch allocates %.2f times, budget %d", got, singleLaunchAllocBudget)
	}
	if ran, want := srv.Exec.Runs(specBatchKernel), per*(8+runs+1); ran != want {
		t.Fatalf("executor ran %d launches, %d were acked", ran, want)
	}
}
