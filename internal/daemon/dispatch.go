// The back half of the launch pipeline (DESIGN.md §4): per-stream lanes.
// Every accepted launch, whether it arrived alone or in a batch, is queued on
// the lane of its CUDA stream (§III: "a queue for each process and CUDA
// stream"). A lane is a FIFO plus the one goroutine that consumes it, so
// launches on one stream run in submission order while different streams
// meet the executor's corun logic independently. Completion records are
// buffered per lane and group-committed — one journal append for everything
// that finished while the lane had more to run.
package daemon

import (
	"fmt"
	"sync"

	"slate/internal/kern"
)

// completionFlushThreshold bounds how many executed-but-not-yet-journaled
// completions a lane buffers before forcing a group commit; the lane also
// flushes whenever it runs dry. Buffering widens the window where a crash
// loses a completion record — which the exactly-once contract already
// tolerates (the launch re-executes on recovery replay) — in exchange for one
// fsync per group instead of per launch.
const completionFlushThreshold = 16

// dispatchItem is one accepted launch queued on its stream's lane: what the
// executor runs and the identity its completion is journaled under.
type dispatchItem struct {
	stream int
	spec   *kern.Spec
	task   int
	// vanilla routes a degraded source launch to the hardware-scheduler path.
	vanilla bool
	// deadline is the frame's propagated deadline (0 = none), checked again
	// when the launch reaches the head of its lane.
	deadline int64
	st       *resumeState
	opID     uint64
}

// lane is one stream's queue. It exists — in dispatcher.lanes, and as a
// goroutine — exactly while the stream has queued, running or unflushed work.
type lane struct {
	queue []dispatchItem // FIFO from head; consumed slots are zeroed
	head  int
	done  []launchOutcome // ran, completion record not yet journaled
	recs  recordGroup     // the completion records of done, while they commit
}

// dispatcher is one session's set of lanes. Launches are pushed from the
// session's ServeConn goroutine, after admission and the accept commit, and
// that goroutine is also the only one that waits for lanes to retire.
type dispatcher struct {
	s  *Server
	ss *session

	mu      sync.Mutex
	retired sync.Cond // signalled each time a lane retires
	lanes   map[int]*lane
	// spare is the last retired lane, kept for its buffers: a stream that
	// runs dry between launches gets its lane back without allocating.
	spare *lane

	// Frame scratch, confined to the session's ServeConn goroutine and reused
	// from one launchFrame to the next.
	fresh   []int
	ready   []dispatchItem
	accepts recordGroup
}

func newDispatcher(s *Server, ss *session) *dispatcher {
	dp := &dispatcher{s: s, ss: ss, lanes: map[int]*lane{}}
	dp.retired.L = &dp.mu
	return dp
}

// push queues a frame's accepted launches on their streams' lanes, starting a
// lane for each stream that was idle, and charges them to the pending
// counters until their completions are journaled. The whole frame is queued
// before any lane can take from it, so launches that arrived together on a
// stream settle in one group. Never blocks: admission bounds what a session
// can have queued.
func (dp *dispatcher) push(frame []dispatchItem) {
	dp.ss.pending.Add(int64(len(frame)))
	dp.s.totalPending.Add(int64(len(frame)))
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for _, it := range frame {
		l := dp.lanes[it.stream]
		if l == nil {
			if l = dp.spare; l != nil {
				dp.spare = nil
			} else {
				l = &lane{}
			}
			dp.lanes[it.stream] = l
			go dp.run(it.stream, l)
		}
		if l.head > 0 && len(l.queue) == cap(l.queue) {
			// Slide the queued items over the consumed slots rather than grow.
			n := copy(l.queue, l.queue[l.head:])
			clear(l.queue[n:])
			l.queue, l.head = l.queue[:n], 0
		}
		l.queue = append(l.queue, it)
	}
}

// wait blocks until the stream's lane has retired — every launch queued on it
// ran and its completion record is in the journal — or, for a negative
// stream, until every lane of the session has (device synchronize, teardown).
// A stream with no lane is idle and returns at once.
func (dp *dispatcher) wait(stream int) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for stream >= 0 && dp.lanes[stream] != nil || stream < 0 && len(dp.lanes) > 0 {
		dp.retired.Wait()
	}
}

// run is a lane's goroutine: while the queue has a head and the buffer has
// room, run it and buffer its outcome; otherwise settle what is buffered; and
// with the queue dry and nothing left to settle, retire. Whoever saw the lane
// gone therefore knows its launches ran and their completion records were
// appended.
func (dp *dispatcher) run(stream int, l *lane) {
	dp.mu.Lock()
	for {
		if l.head < len(l.queue) && len(l.done) < completionFlushThreshold {
			it := l.queue[l.head]
			l.queue[l.head] = dispatchItem{}
			l.head++
			dp.mu.Unlock()
			l.done = append(l.done, launchOutcome{st: it.st, opID: it.opID, err: dp.exec(&it)})
			dp.mu.Lock()
			continue
		}
		if len(l.done) == 0 {
			break
		}
		dp.mu.Unlock()
		dp.settle(l)
		clear(l.done)
		l.done = l.done[:0]
		dp.mu.Lock()
	}
	l.queue, l.head = l.queue[:0], 0
	delete(dp.lanes, stream)
	dp.spare = l
	dp.mu.Unlock()
	dp.retired.Broadcast()
}

// exec runs one launch, unless its deadline passed while it waited its turn:
// then it is shed at the queue head — never executed, its completion still
// journaled, with CodeExpired.
func (dp *dispatcher) exec(it *dispatchItem) error {
	switch {
	case expired(it.deadline):
		return fmt.Errorf("%w: deadline passed at queue head", ErrExpired)
	case it.vanilla:
		return dp.s.Exec.RunVanilla(it.spec, it.task)
	default:
		return dp.s.Exec.Run(it.spec, it.task)
	}
}

// settle group-commits the completion records of finished launches and only
// then releases their pending quota: a client whose synchronize returned, or
// whose launch was admitted into the freed quota, knows the records are in
// the journal.
func (dp *dispatcher) settle(l *lane) {
	done := l.done
	dp.s.journalCompletions(&l.recs, done)
	for i := range done {
		if err := done[i].err; err != nil {
			dp.ss.recordLaunch(err)
		}
	}
	dp.s.totalPending.Add(-int64(len(done)))
	dp.ss.pending.Add(-int64(len(done)))
}
