package transform

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"slate/internal/kern"
)

func mustTransform(t *testing.T, grid kern.Dim3, task int) *Transformed {
	t.Helper()
	tr, err := Transform(grid, task)
	if err != nil {
		t.Fatalf("Transform(%v): %v", grid, err)
	}
	return tr
}

func TestTransformRejectsInvalidGrid(t *testing.T) {
	for _, g := range []kern.Dim3{{X: 0, Y: 1, Z: 1}, {X: 4, Y: 4, Z: 2}, {X: -1, Y: 1, Z: 1}} {
		if _, err := Transform(g, 1); err == nil {
			t.Errorf("grid %v accepted", g)
		}
	}
}

func TestDefaultTaskSize(t *testing.T) {
	tr := mustTransform(t, kern.D1(100), 0)
	if tr.TaskSize != DefaultTaskSize {
		t.Fatalf("TaskSize = %d, want default %d", tr.TaskSize, DefaultTaskSize)
	}
}

func TestNumTasksCeil(t *testing.T) {
	cases := []struct{ blocks, task, want int }{
		{100, 10, 10}, {101, 10, 11}, {9, 10, 1}, {10, 10, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		tr := mustTransform(t, kern.D1(c.blocks), c.task)
		if got := tr.NumTasks(); got != c.want {
			t.Errorf("NumTasks(%d blocks, task %d) = %d, want %d", c.blocks, c.task, got, c.want)
		}
	}
}

// The increment-with-rollover reconstruction must agree with the direct
// div/mod mapping for every block of every task — the isomorphism K ≅ K*.
func TestWalkTaskMatchesBlockID(t *testing.T) {
	grids := []kern.Dim3{kern.D1(1), kern.D1(97), kern.D2(7, 13), kern.D2(64, 64), kern.D2(1, 50), kern.D2(50, 1)}
	for _, g := range grids {
		for _, task := range []int{1, 3, 10, 1000} {
			tr := mustTransform(t, g, task)
			for start := 0; start < tr.NumBlocks; start += task {
				tr.WalkTask(start, task, func(glob int, id kern.Dim3) {
					want := tr.BlockID(glob)
					if id != want {
						t.Fatalf("grid %v task %d: block %d reconstructed as %v, want %v", g, task, glob, id, want)
					}
				})
			}
		}
	}
}

func TestWalkTaskClampsAtQueueEnd(t *testing.T) {
	tr := mustTransform(t, kern.D1(25), 10)
	var got []int
	tr.WalkTask(20, 10, func(glob int, _ kern.Dim3) { got = append(got, glob) })
	if len(got) != 5 {
		t.Fatalf("clamped task executed %d blocks, want 5", len(got))
	}
	for i, g := range got {
		if g != 20+i {
			t.Fatalf("blocks out of order: %v", got)
		}
	}
	// Entirely out-of-range start executes nothing.
	tr.WalkTask(25, 10, func(int, kern.Dim3) { t.Fatal("executed past queue end") })
	tr.WalkTask(-1, 10, func(int, kern.Dim3) { t.Fatal("executed negative index") })
}

// Property: for random 2D grids and task sizes, walking all tasks covers
// every flattened index exactly once, in increasing order, with correct IDs.
func TestPropertyWalkCoversExactlyOnce(t *testing.T) {
	f := func(gx, gy, task uint8) bool {
		g := kern.D2(int(gx%50)+1, int(gy%50)+1)
		ts := int(task%17) + 1
		tr, err := Transform(g, ts)
		if err != nil {
			return false
		}
		seen := make([]int, tr.NumBlocks)
		prev := -1
		okOrder := true
		for start := 0; start < tr.NumBlocks; start += ts {
			tr.WalkTask(start, ts, func(glob int, id kern.Dim3) {
				seen[glob]++
				if glob != prev+1 {
					okOrder = false
				}
				prev = glob
				if id.X != glob%g.X || id.Y != glob/g.X {
					okOrder = false
				}
			})
		}
		if !okOrder {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePullSequence(t *testing.T) {
	tr := mustTransform(t, kern.D1(25), 10)
	q := NewQueue(tr)
	type pull struct{ idx, n int }
	var got []pull
	for {
		idx, n, ok := q.Pull()
		if !ok {
			break
		}
		got = append(got, pull{idx, n})
	}
	want := []pull{{0, 10}, {10, 10}, {20, 5}}
	if len(got) != len(want) {
		t.Fatalf("pulls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pulls = %v, want %v", got, want)
		}
	}
	if !q.Done() {
		t.Fatal("queue not done after draining")
	}
	if q.Atomics() != 4 { // 3 successful + 1 failed pull
		t.Fatalf("atomics = %d, want 4", q.Atomics())
	}
	if q.Progress() != 25 {
		t.Fatalf("progress = %d, want clamped 25", q.Progress())
	}
}

func TestQueueRetreatResume(t *testing.T) {
	tr := mustTransform(t, kern.D1(100), 10)
	q := NewQueue(tr)
	q.Pull()
	q.Retreat()
	if !q.Retreating() {
		t.Fatal("retreat flag not set")
	}
	// Pull still works (claimed tasks always execute); only the worker loop
	// consults the flag.
	if _, _, ok := q.Pull(); !ok {
		t.Fatal("pull after retreat failed; device semantics require claim-then-execute")
	}
	q.Resume()
	if q.Retreating() {
		t.Fatal("resume did not clear flag")
	}
}

// Resetting a drained, retreating queue onto another grid, and flattening
// into a used Transformed, give what NewQueue and Transform give fresh; a
// failed flatten leaves its Transformed alone.
func TestResetMatchesFresh(t *testing.T) {
	var tr Transformed
	q := NewQueue(mustTransform(t, kern.D1(5), 2))
	for _, c := range []struct {
		grid kern.Dim3
		task int
	}{{kern.D1(25), 10}, {kern.D2(7, 3), 4}, {kern.D1(3), 0}} {
		q.Pull()
		q.Retreat()
		if err := tr.Reset(c.grid, c.task); err != nil {
			t.Fatal(err)
		}
		if fresh := mustTransform(t, c.grid, c.task); tr != *fresh {
			t.Fatalf("Reset(%v, %d) = %+v, Transform gives %+v", c.grid, c.task, tr, *fresh)
		}
		q.Reset(&tr)
		ref := NewQueue(&tr)
		if q.Retreating() || q.Atomics() != 0 || q.Progress() != 0 {
			t.Fatalf("reset queue: retreating=%v atomics=%d progress=%d", q.Retreating(), q.Atomics(), q.Progress())
		}
		for {
			gi, gn, gok := q.Pull()
			wi, wn, wok := ref.Pull()
			if gi != wi || gn != wn || gok != wok {
				t.Fatalf("grid %v: reset queue pulled (%d, %d, %v), a new one (%d, %d, %v)", c.grid, gi, gn, gok, wi, wn, wok)
			}
			if !gok {
				break
			}
		}
	}
	before := tr
	if err := tr.Reset(kern.Dim3{X: 2, Y: 2, Z: 2}, 4); err == nil || tr != before {
		t.Fatalf("Reset onto a 3D grid: err %v, Transformed %+v (was %+v)", err, tr, before)
	}
}

func TestRunParallelExecutesAllBlocksOnce(t *testing.T) {
	tr := mustTransform(t, kern.D2(33, 17), 7)
	q := NewQueue(tr)
	counts := make([]atomic.Int32, tr.NumBlocks)
	res := RunParallel(tr, q, 8, func(glob int, id kern.Dim3) {
		counts[glob].Add(1)
		if id != tr.BlockID(glob) {
			t.Errorf("block %d got id %v", glob, id)
		}
	})
	if res.BlocksExecuted != tr.NumBlocks {
		t.Fatalf("executed %d blocks, want %d", res.BlocksExecuted, tr.NumBlocks)
	}
	if res.Interrupted {
		t.Fatal("uninterrupted run reported interruption")
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("block %d executed %d times", i, n)
		}
	}
}

func TestRunParallelHonorsRetreatAndResumes(t *testing.T) {
	tr := mustTransform(t, kern.D1(10000), 5)
	q := NewQueue(tr)
	var executed atomic.Int64
	var once sync.Once
	res := RunParallel(tr, q, 4, func(glob int, _ kern.Dim3) {
		executed.Add(1)
		if glob > 200 {
			once.Do(q.Retreat)
		}
	})
	if !res.Interrupted {
		t.Fatal("retreat did not interrupt the run")
	}
	if res.BlocksExecuted == tr.NumBlocks {
		t.Fatal("retreat had no effect; all blocks ran in one launch")
	}
	// Claimed == executed invariant: progress equals executed blocks.
	if res.NextIdx != res.BlocksExecuted {
		t.Fatalf("resume cursor %d != executed %d; would lose or duplicate work", res.NextIdx, res.BlocksExecuted)
	}
	// Relaunch with a different worker count finishes the job exactly.
	q.Resume()
	res2 := RunParallel(tr, q, 16, func(glob int, _ kern.Dim3) { executed.Add(1) })
	if res.BlocksExecuted+res2.BlocksExecuted != tr.NumBlocks {
		t.Fatalf("total executed %d, want %d", res.BlocksExecuted+res2.BlocksExecuted, tr.NumBlocks)
	}
}

func TestRunToCompletionSurvivesRepeatedRetreats(t *testing.T) {
	tr := mustTransform(t, kern.D1(5000), 10)
	q := NewQueue(tr)
	counts := make([]atomic.Int32, tr.NumBlocks)
	var retreats atomic.Int32
	res := RunToCompletion(tr, q, 4,
		func(launch int) int { return 2 + launch }, // grow workers each relaunch
		func(glob int, _ kern.Dim3) {
			counts[glob].Add(1)
			// Trigger a handful of retreats spread through execution.
			if glob%1000 == 999 && retreats.Load() < 4 {
				retreats.Add(1)
				q.Retreat()
			}
		})
	if res.BlocksExecuted != tr.NumBlocks {
		t.Fatalf("executed %d, want %d", res.BlocksExecuted, tr.NumBlocks)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("block %d executed %d times across relaunches", i, n)
		}
	}
	if retreats.Load() == 0 {
		t.Fatal("test exercised no retreats")
	}
}

// A negative resize return abandons the dispatch loop between launches: the
// executor's containment deadline relies on this to stop relaunching an
// abandoned kernel's workers.
func TestRunToCompletionAbandonsOnNegativeResize(t *testing.T) {
	tr := mustTransform(t, kern.D1(5000), 10)
	q := NewQueue(tr)
	var executed atomic.Int32
	res := RunToCompletion(tr, q, 4,
		func(launch int) int {
			if launch > 0 {
				return -1 // abandon after the first retreat
			}
			return 4
		},
		func(glob int, _ kern.Dim3) {
			executed.Add(1)
			if glob == 99 {
				q.Retreat()
			}
		})
	if !res.Interrupted {
		t.Fatal("abandoned run not reported as interrupted")
	}
	if res.BlocksExecuted >= tr.NumBlocks {
		t.Fatal("abandoned run executed the whole grid")
	}
	if q.Done() {
		t.Fatal("queue fully drained despite abandonment")
	}
	if res.NextIdx != q.Progress() {
		t.Fatalf("resume cursor %d != queue progress %d", res.NextIdx, q.Progress())
	}
}

// Property: parallel execution over random grids/workers/task sizes touches
// each block exactly once (the core correctness claim of the transformation
// under concurrency).
func TestPropertyRunParallelExactlyOnce(t *testing.T) {
	f := func(gx, gy, task, workers uint8) bool {
		g := kern.D2(int(gx%40)+1, int(gy%40)+1)
		tr, err := Transform(g, int(task%13)+1)
		if err != nil {
			return false
		}
		q := NewQueue(tr)
		counts := make([]atomic.Int32, tr.NumBlocks)
		res := RunParallel(tr, q, int(workers%12)+1, func(glob int, _ kern.Dim3) {
			counts[glob].Add(1)
		})
		if res.BlocksExecuted != tr.NumBlocks {
			return false
		}
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A launch with fewer tasks than workers starts one worker per task, not one
// per worker: every worker that starts ends on exactly one empty pull, so
// pulls beyond the tasks themselves count the workers started. Every block
// still runs exactly once, and a retreat raised mid-run still leaves NextIdx
// a cursor a relaunch finishes from.
func TestRunParallelStartsNoMoreWorkersThanTasks(t *testing.T) {
	const taskSize, workers = 4, 8
	for tasks := 1; tasks <= 3; tasks++ {
		for _, retreat := range []bool{false, true} {
			tr := mustTransform(t, kern.D1(tasks*taskSize-1), taskSize) // a short last task
			q := NewQueue(tr)
			counts := make([]atomic.Int32, tr.NumBlocks)
			fn := func(glob int, id kern.Dim3) {
				counts[glob].Add(1)
				if id != tr.BlockID(glob) {
					t.Errorf("block %d got id %v", glob, id)
				}
				if retreat && glob == 0 {
					q.Retreat()
				}
			}
			res := RunParallel(tr, q, workers, fn)
			if started := res.Atomics - int64((res.NextIdx+taskSize-1)/taskSize); started > int64(tasks) {
				t.Fatalf("tasks=%d retreat=%v: %d workers started (%d pulls for %d claimed blocks)",
					tasks, retreat, started, res.Atomics, res.NextIdx)
			}
			if res.BlocksExecuted != res.NextIdx {
				t.Fatalf("tasks=%d retreat=%v: executed %d blocks but the cursor is %d", tasks, retreat, res.BlocksExecuted, res.NextIdx)
			}
			if res.Interrupted != (res.NextIdx < tr.NumBlocks) {
				t.Fatalf("tasks=%d retreat=%v: Interrupted=%v at cursor %d of %d", tasks, retreat, res.Interrupted, res.NextIdx, tr.NumBlocks)
			}
			if !retreat && res.Interrupted {
				t.Fatalf("tasks=%d: uninterrupted run reported interruption", tasks)
			}
			// The cursor is a valid resume point: a relaunch runs what is left.
			q.Resume()
			retreat = false
			rest := RunParallel(tr, q, workers, fn)
			if res.BlocksExecuted+rest.BlocksExecuted != tr.NumBlocks || rest.Interrupted || rest.NextIdx != tr.NumBlocks {
				t.Fatalf("tasks=%d: relaunch from %d ran %d more of %d blocks (%+v)", tasks, res.NextIdx, rest.BlocksExecuted, tr.NumBlocks, rest)
			}
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("tasks=%d: block %d executed %d times", tasks, i, n)
				}
			}
		}
	}
}

// With at least as many tasks as workers the worker rule changes nothing:
// one pull per task plus one empty pull per worker.
func TestRunParallelAtomicsUnchangedWithEnoughTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, tasks := range []int{workers, workers + 1, 10 * workers} {
			tr := mustTransform(t, kern.D1(tasks*3), 3)
			res := RunParallel(tr, NewQueue(tr), workers, func(int, kern.Dim3) {})
			if want := int64(tasks + workers); res.Atomics != want || res.BlocksExecuted != tr.NumBlocks {
				t.Fatalf("workers=%d tasks=%d: %d atomics, %d blocks; want %d and %d",
					workers, tasks, res.Atomics, res.BlocksExecuted, want, tr.NumBlocks)
			}
		}
	}
}

func TestAtomicsScaleInverselyWithTaskSize(t *testing.T) {
	// The §V-D1 overhead argument: task grouping divides queue atomics.
	blocks := 1000
	var prev int64 = 1 << 62
	for _, task := range []int{1, 10, 100} {
		tr := mustTransform(t, kern.D1(blocks), task)
		q := NewQueue(tr)
		RunParallel(tr, q, 4, func(int, kern.Dim3) {})
		at := q.Atomics()
		if at >= prev {
			t.Fatalf("task %d: atomics %d did not decrease from %d", task, at, prev)
		}
		prev = at
	}
}

func BenchmarkRunParallel(b *testing.B) {
	tr, _ := Transform(kern.D2(256, 256), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := NewQueue(tr)
		RunParallel(tr, q, 8, func(int, kern.Dim3) {})
	}
}

func BenchmarkQueuePull(b *testing.B) {
	tr, _ := Transform(kern.D1(1<<30), 10)
	q := NewQueue(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Pull()
	}
}
