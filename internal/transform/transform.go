// Package transform implements Slate's kernel transformation (§III-A): a 1D
// or 2D user grid K(B,T) becomes an isomorphic 1D grid K*(B*,T) whose blocks
// are drained from a task queue by persistent workers. Multiple user blocks
// are grouped into one task (SLATE_ITERS) to amortize the queue atomic, and
// the user-visible blockIdx is reconstructed from the flattened index with
// one division per task plus increment-with-rollover per block — never a
// per-block modulo (Listing 2).
//
// The package also provides a real parallel executor: persistent Go worker
// goroutines pulling tasks from an atomic counter, honoring the retreat
// signal used for dynamic resizing (§III-C). Tests use it to verify that the
// transformation preserves user-kernel semantics; examples use it to run
// actual computations.
package transform

import (
	"fmt"
	"sync"
	"sync/atomic"

	"slate/internal/kern"
)

// Transformed is the result of flattening a user grid.
type Transformed struct {
	// Grid is the original user grid (1D or 2D).
	Grid kern.Dim3
	// NumBlocks is the flattened 1D block count (slateMax in the paper).
	NumBlocks int
	// TaskSize is the SLATE_ITERS grouping factor.
	TaskSize int
}

// DefaultTaskSize is the paper's default grouping of 10 user blocks per task
// (§V-B).
const DefaultTaskSize = 10

// Transform flattens a kernel's grid. taskSize <= 0 selects the default.
func Transform(grid kern.Dim3, taskSize int) (*Transformed, error) {
	t := &Transformed{}
	if err := t.Reset(grid, taskSize); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset flattens grid into t in place, as Transform does into a new value,
// so a caller that keeps its Transformed can flatten without allocating. On
// error t is unchanged.
func (t *Transformed) Reset(grid kern.Dim3, taskSize int) error {
	if !grid.Valid() {
		return fmt.Errorf("transform: grid %v is not a valid 1D/2D grid", grid)
	}
	if taskSize <= 0 {
		taskSize = DefaultTaskSize
	}
	*t = Transformed{Grid: grid, NumBlocks: grid.Count(), TaskSize: taskSize}
	return nil
}

// NumTasks returns the task count: ceil(NumBlocks/TaskSize).
func (t *Transformed) NumTasks() int {
	return (t.NumBlocks + t.TaskSize - 1) / t.TaskSize
}

// BlockID maps a flattened block index to the user-visible 2D blockIdx by
// direct division — the reference mapping the increment-based walk must
// agree with.
func (t *Transformed) BlockID(glob int) kern.Dim3 {
	return kern.Dim3{X: glob % t.Grid.X, Y: glob / t.Grid.X, Z: 1}
}

// WalkTask reconstructs the user blockIdx for each block of the task
// starting at globIdx, exactly as the injected device code does (Listing 2):
// one div/mod at task start, then increment-with-rollover per block. iters
// is clamped to the queue end (slateMax). fn receives the flattened index
// and the reconstructed blockIdx.
func (t *Transformed) WalkTask(globIdx, iters int, fn func(glob int, id kern.Dim3)) {
	if globIdx < 0 || globIdx >= t.NumBlocks {
		return
	}
	if globIdx+iters > t.NumBlocks {
		iters = t.NumBlocks - globIdx // clamp, as `min(SLATE_ITERS, slateMax-globIdx)`
	}
	// Listing 2 initializes x to (globIdx % gridDim.x) - 1 and pre-increments
	// inside the loop, rolling over to the next row when x reaches gridDim.x.
	x := globIdx%t.Grid.X - 1
	y := globIdx / t.Grid.X
	for i := 0; i < iters; i++ {
		x++
		if x == t.Grid.X {
			x = 0
			y++
		}
		fn(globIdx+i, kern.Dim3{X: x, Y: y, Z: 1})
	}
}

// Queue is the device-resident task queue: an atomic cursor (slateIdx) over
// the flattened blocks, with a retreat flag that tells workers to stop
// pulling so the dispatch kernel can resize the worker set (Listing 3).
type Queue struct {
	t       *Transformed
	slate   atomic.Int64 // next unclaimed flattened block index
	retreat atomic.Bool
	atomics atomic.Int64 // number of queue pulls, an overhead metric
}

// NewQueue creates a queue positioned at the beginning of the grid.
func NewQueue(t *Transformed) *Queue {
	return &Queue{t: t}
}

// Reset repositions q at the beginning of t's grid, its retreat flag down
// and its pull count zero: the queue NewQueue(t) returns, made in place. No
// worker may be pulling from q.
func (q *Queue) Reset(t *Transformed) {
	q.t = t
	q.slate.Store(0)
	q.retreat.Store(false)
	q.atomics.Store(0)
}

// Pull claims the next task. It returns the starting flattened index and the
// clamped iteration count, or ok=false when the queue is drained. Pull does
// not consult the retreat flag: as in Listing 2, a worker that claims a task
// always executes it, and checks the flag only between pulls — so slateIdx
// is always a safe resume cursor.
func (q *Queue) Pull() (globIdx, iters int, ok bool) {
	idx := q.slate.Add(int64(q.t.TaskSize)) - int64(q.t.TaskSize)
	q.atomics.Add(1)
	if idx >= int64(q.t.NumBlocks) {
		return 0, 0, false
	}
	n := q.t.TaskSize
	if rem := int(int64(q.t.NumBlocks) - idx); rem < n {
		n = rem
	}
	return int(idx), n, true
}

// Retreat raises the retreat flag: workers finish their current task and
// stop pulling.
func (q *Queue) Retreat() { q.retreat.Store(true) }

// Retreating reports whether the retreat flag is raised.
func (q *Queue) Retreating() bool { return q.retreat.Load() }

// Resume clears the retreat flag (new worker set launched).
func (q *Queue) Resume() { q.retreat.Store(false) }

// Progress returns the number of claimed flattened blocks, clamped to the
// grid size (slateIdx in the paper; it can overshoot by up to one task per
// worker, which the clamp hides exactly as `min` does in the device code).
func (q *Queue) Progress() int {
	p := q.slate.Load()
	if p > int64(q.t.NumBlocks) {
		p = int64(q.t.NumBlocks)
	}
	return int(p)
}

// Done reports whether every block has been claimed.
func (q *Queue) Done() bool { return q.slate.Load() >= int64(q.t.NumBlocks) }

// Atomics returns the number of queue pulls performed, the serialization
// overhead metric of §V-D1.
func (q *Queue) Atomics() int64 { return q.atomics.Load() }

// RunResult summarizes a parallel execution.
type RunResult struct {
	// BlocksExecuted counts user blocks whose Exec ran.
	BlocksExecuted int
	// Atomics counts queue pulls.
	Atomics int64
	// Interrupted reports whether a retreat stopped execution early.
	Interrupted bool
	// NextIdx is the first unexecuted flattened block index (resume point
	// for the relaunched worker set).
	NextIdx int
}

// RunParallel executes fn for every user block using persistent workers
// pulling tasks from q. Within a task, blocks run in order with the
// increment-with-rollover reconstruction. Workers check the retreat flag
// between pulls, exactly like the injected do-while of Listing 2: a claimed
// task always completes, so q.Progress() is a safe resume cursor.
//
// No more workers start than the queue has tasks left — one beyond that
// could only pull an empty queue — and the caller is the last of them, so a
// launch of one task starts no goroutine at all. A queue with at least
// `workers` tasks left runs exactly as `workers` goroutines would.
func RunParallel(t *Transformed, q *Queue, workers int, fn func(glob int, id kern.Dim3)) RunResult {
	if left := (t.NumBlocks - q.Progress() + t.TaskSize - 1) / t.TaskSize; workers > left {
		workers = left
	}
	var executed int
	if workers <= 1 {
		executed = drain(t, q, fn)
	} else {
		executed = drainParallel(t, q, workers, fn)
	}
	return RunResult{
		BlocksExecuted: executed,
		Atomics:        q.Atomics(),
		Interrupted:    q.Retreating() && !q.Done(),
		NextIdx:        q.Progress(),
	}
}

// drain is one persistent worker: pull, walk the task, check the retreat
// flag, until the queue is empty. It returns the blocks it executed.
func drain(t *Transformed, q *Queue, fn func(glob int, id kern.Dim3)) int {
	executed := 0
	for !q.Retreating() {
		glob, iters, ok := q.Pull()
		if !ok {
			break
		}
		t.WalkTask(glob, iters, fn)
		executed += iters
	}
	return executed
}

// drainParallel runs `workers` workers, the caller being one of them, and
// returns once all have stopped. It is a function of its own so that the
// WaitGroup and counter its goroutines share escape to the heap here and not
// in RunParallel, where a one-worker launch would pay for them too.
func drainParallel(t *Transformed, q *Queue, workers int, fn func(glob int, id kern.Dim3)) int {
	var wg sync.WaitGroup
	var executed atomic.Int64
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			executed.Add(int64(drain(t, q, fn)))
		}()
	}
	own := drain(t, q, fn)
	wg.Wait()
	return own + int(executed.Load())
}

// RunToCompletion repeatedly launches worker sets until the queue drains,
// resuming the retreat flag between launches — the host-side equivalent of
// Listing 3's dispatch-kernel loop. resize, if non-nil, is consulted before
// each relaunch to pick the next worker count; a negative return abandons
// the run between launches (the executor's containment deadline), leaving
// the result Interrupted with the resume cursor intact.
func RunToCompletion(t *Transformed, q *Queue, workers int, resize func(launch int) int, fn func(glob int, id kern.Dim3)) RunResult {
	total := RunResult{}
	for launch := 0; ; launch++ {
		if resize != nil {
			w := resize(launch)
			if w < 0 {
				total.Interrupted = true
				total.NextIdx = q.Progress()
				return total
			}
			if w > 0 {
				workers = w
			}
		}
		q.Resume()
		res := RunParallel(t, q, workers, fn)
		total.BlocksExecuted += res.BlocksExecuted
		total.Atomics = res.Atomics
		total.NextIdx = res.NextIdx
		total.Interrupted = false
		if q.Done() {
			return total
		}
	}
}
