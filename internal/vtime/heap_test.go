package vtime

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refEvent and refHeap are the container/heap event queue Clock used before
// its typed heap: the differential reference of
// TestEventHeapMatchesContainerHeap.
type refEvent struct {
	at     Time
	seq    uint64
	fn     func(now Time)
	index  int
	cancel bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refClock is Clock's scheduling semantics over refHeap, without recycling.
type refClock struct {
	now    Time
	seq    uint64
	events refHeap
	fired  uint64
}

func (c *refClock) At(at Time, fn func(Time)) *refEvent {
	e := &refEvent{at: at, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.events, e)
	return e
}

func (c *refClock) Cancel(e *refEvent) {
	if e.cancel || e.index < 0 {
		e.cancel = true
		return
	}
	e.cancel = true
	heap.Remove(&c.events, e.index)
}

func (c *refClock) Step() bool {
	for len(c.events) > 0 {
		e := heap.Pop(&c.events).(*refEvent)
		if e.cancel {
			continue
		}
		c.now = e.at
		c.fired++
		e.fn(c.now)
		return true
	}
	return false
}

func (c *refClock) RunUntil(deadline Time) {
	for len(c.events) > 0 {
		next := c.events[0]
		if next.cancel {
			heap.Pop(&c.events)
			continue
		}
		if next.at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// scriptQueue is one side of the differential script: the clock under test
// or the reference, each scheduling events by script ID.
type scriptQueue struct {
	at       func(at Time, id int)
	after    func(d Duration, id int)
	cancel   func(id int)
	step     func() bool
	runUntil func(Time)
	now      func() Time
	pending  func() int
	fired    func() uint64

	log    []int // IDs in firing order
	live   []int // IDs of pending events, in scheduling order
	nextID int
}

// schedule queues a fresh ID at at.
func (q *scriptQueue) schedule(at Time) { q.at(at, q.fresh()) }

// scheduleAfter queues a fresh ID d from now.
func (q *scriptQueue) scheduleAfter(d Duration) { q.after(d, q.fresh()) }

// fresh returns the next ID, marked pending.
func (q *scriptQueue) fresh() int {
	id := q.nextID
	q.nextID++
	q.live = append(q.live, id)
	return id
}

// drop forgets a fired or cancelled ID.
func (q *scriptQueue) drop(id int) {
	if i := slices.Index(q.live, id); i >= 0 {
		q.live = slices.Delete(q.live, i, i+1)
	}
}

// fire is every event's callback: it logs the ID, then by the ID's residues
// schedules a follow-up (often at this very instant, to exercise the seq
// tie-break), cancels another pending event, or cancels itself (a no-op).
func (q *scriptQueue) fire(id int, now Time) {
	q.drop(id)
	q.log = append(q.log, id)
	if id%3 == 0 {
		q.scheduleAfter(Duration(id % 4))
	}
	if id%4 == 1 && len(q.live) > 0 {
		victim := q.live[id%len(q.live)]
		q.drop(victim)
		q.cancel(victim)
	}
	if id%11 == 0 {
		q.cancel(id)
	}
}

func clockQueue() *scriptQueue {
	c := NewClock()
	events := map[int]*Event{}
	q := &scriptQueue{now: c.Now, pending: c.Pending, fired: c.Fired, step: c.Step, runUntil: c.RunUntil}
	fn := func(id int) func(Time) {
		return func(now Time) {
			q.fire(id, now)
			delete(events, id) // the clock recycles the event once this returns
		}
	}
	q.at = func(at Time, id int) { events[id] = c.At(at, fn(id)) }
	q.after = func(d Duration, id int) { events[id] = c.After(d, fn(id)) }
	q.cancel = func(id int) {
		if e, ok := events[id]; ok {
			c.Cancel(e) // recycles a pending event: forget the pointer
			delete(events, id)
		}
	}
	return q
}

func refQueue() *scriptQueue {
	c := &refClock{}
	events := map[int]*refEvent{}
	q := &scriptQueue{
		now:      func() Time { return c.now },
		pending:  func() int { return len(c.events) },
		fired:    func() uint64 { return c.fired },
		step:     c.Step,
		runUntil: c.RunUntil,
	}
	q.at = func(at Time, id int) {
		events[id] = c.At(at, func(now Time) {
			q.fire(id, now)
			delete(events, id)
		})
	}
	q.after = func(d Duration, id int) { q.at(c.now.Add(d), id) }
	q.cancel = func(id int) {
		if e, ok := events[id]; ok {
			c.Cancel(e)
			delete(events, id)
		}
	}
	return q
}

// TestEventHeapMatchesContainerHeap drives seeded random scripts of At,
// After, Cancel, Step and RunUntil — with callbacks that schedule, cancel
// and cancel themselves — through Clock and through the container/heap
// reference, and asserts the same firing order, Now, Pending and Fired
// after every operation. Timestamps are drawn from a narrow range so most
// events tie on time and the seq tie-break decides.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sides := [2]*scriptQueue{clockQueue(), refQueue()}
		for op := 0; op < 400; op++ {
			kind, arg, pick := r.Intn(10), r.Intn(6), r.Int()
			for _, q := range sides {
				switch {
				case kind < 3: // At
					q.schedule(q.now() + Time(arg))
				case kind < 5: // After
					q.scheduleAfter(Duration(arg))
				case kind < 6: // Cancel a pending event
					if len(q.live) > 0 {
						id := q.live[pick%len(q.live)]
						q.drop(id)
						q.cancel(id)
					}
				case kind < 9:
					q.step()
				default:
					q.runUntil(q.now() + Time(arg))
				}
			}
			got, want := sides[0], sides[1]
			if !slices.Equal(got.log, want.log) || got.now() != want.now() ||
				got.pending() != want.pending() || got.fired() != want.fired() {
				t.Fatalf("seed %d op %d (kind %d): typed heap fired %v now %v pending %d fired %d; container/heap fired %v now %v pending %d fired %d",
					seed, op, kind, got.log, got.now(), got.pending(), got.fired(),
					want.log, want.now(), want.pending(), want.fired())
			}
		}
		for sides[0].step() {
		}
		for sides[1].step() {
		}
		if !slices.Equal(sides[0].log, sides[1].log) || sides[0].fired() != sides[1].fired() {
			t.Fatalf("seed %d: drained firing orders differ", seed)
		}
	}
}
