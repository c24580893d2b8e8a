// Package vtime provides a deterministic virtual clock and discrete-event
// queue. All simulation components in this repository advance time through a
// vtime.Clock rather than the wall clock, which keeps every experiment
// reproducible and allows the benchmark harness to simulate tens of seconds
// of GPU execution in milliseconds of host time.
package vtime

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. Virtual nanoseconds map one-to-one to the nanoseconds the
// modeled hardware would spend.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package for readability at call sites.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel used by components that currently have no upcoming
// event. It is safely beyond any realistic simulation horizon.
const Forever Time = math.MaxInt64 / 4

// Seconds converts a virtual duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis converts a virtual duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Micros converts a virtual duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// FromSeconds converts floating-point seconds to a virtual duration, rounding
// to the nearest nanosecond.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

func (t Time) String() string { return fmt.Sprintf("%.6fms", Duration(t).Millis()) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Event is a scheduled callback. The callback runs exactly once, at its
// scheduled time, unless cancelled first.
//
// Ownership: the *Event returned by At/After belongs to the caller only
// while the event is pending. Once its callback has returned, or once
// Cancel on it has returned, the clock may recycle the allocation for a
// future event — retaining the pointer past that moment (in particular,
// cancelling it again later) is a bug. Calling Cancel from inside the
// event's own callback — "cancelling the currently-firing event" — is the
// one documented exception: it is a safe no-op (the event already fired and
// the flag is reset before the allocation is reused).
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among same-time events
	fn     func(now Time)
	index  int // heap index, -1 once popped or cancelled
	cancel bool
}

// Time reports when the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// Pending reports whether the event is still queued — false once it has
// fired (including during its own callback) or been cancelled. Callers that
// hold an event across other events' callbacks (the engine's completion and
// checkpoint events) use it to drop references to fired events before the
// clock recycles them.
func (e *Event) Pending() bool { return e.index >= 0 }

// eventHeap is a binary min-heap of events ordered by (at, seq), each event
// keeping its own index so Cancel can remove it in place. (at, seq) is a
// strict total order, so the sequence of minima is the only one any correct
// heap can produce. It is typed rather than a container/heap.Interface: every
// event pays a push and a pop, and the interface calls and the boxing of
// each *Event into an any were a tenth of the warm simulator's CPU.
type eventHeap []*Event

// before reports whether e fires before f.
func (e *Event) before(f *Event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// push adds e to the heap.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// remove takes the event at index i out of the heap, sets its index to -1
// and returns it; remove(0) pops the minimum.
func (h *eventHeap) remove(i int) *Event {
	s := *h
	n := len(s) - 1
	e, last := s[i], s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		if !h.down(i, last) {
			h.up(i, last)
		}
	}
	e.index = -1
	return e
}

// up places e at the hole i, moving it toward the root past every parent it
// fires before.
func (h eventHeap) up(i int, e *Event) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down places e at the hole i, moving it toward the leaves past every child
// that fires before it; it reports whether e moved.
func (h eventHeap) down(i int, e *Event) bool {
	i0, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i > i0
}

// Clock is a discrete-event simulation clock. It is not safe for concurrent
// use; the simulation engine is single-threaded by design (determinism), and
// concurrency in the modeled system is expressed as interleaved events.
type Clock struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
	// free recycles Event allocations: the engine cancels and reschedules
	// completion/checkpoint events on every recompute, and without reuse
	// that churn dominates the event loop's allocation profile.
	free []*Event
}

// freeListCap bounds the recycled-event pool; beyond it events are left to
// the garbage collector (the steady-state working set is tiny — pending
// events per simulation number in the tens).
const freeListCap = 1024

// NewClock returns a clock positioned at time zero with an empty event queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired returns the number of events dispatched so far, a useful progress and
// complexity metric for tests.
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of events still queued (including cancelled
// events not yet reaped).
func (c *Clock) Pending() int { return len(c.events) }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it always indicates a simulation bug and silently reordering
// events would mask it.
func (c *Clock) At(at Time, fn func(now Time)) *Event {
	if at < c.now {
		panic(fmt.Sprintf("vtime: scheduling event at %v before now %v", at, c.now))
	}
	var e *Event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*e = Event{at: at, seq: c.seq, fn: fn}
	} else {
		e = &Event{at: at, seq: c.seq, fn: fn}
	}
	c.seq++
	c.events.push(e)
	return e
}

// recycle returns a detached event (popped or heap-removed) to the free
// list. The callback is dropped immediately so captured state is collectable;
// At fully resets the struct on reissue, so a stale cancel flag — including
// one set by the documented no-op Cancel of the currently-firing event —
// cannot leak into the allocation's next life.
func (c *Clock) recycle(e *Event) {
	e.fn = nil
	e.index = -1
	if len(c.free) < freeListCap {
		c.free = append(c.free, e)
	}
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d Duration, fn func(now Time)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative delay %d", d))
	}
	return c.At(c.now.Add(d), fn)
}

// Cancel removes a scheduled event and recycles its allocation — after it
// returns the pointer must not be used again. Cancelling an
// already-cancelled event, or the currently-firing event from inside its
// own callback, is a no-op (see the Event ownership rule).
func (c *Clock) Cancel(e *Event) {
	if e == nil || e.cancel || e.index < 0 {
		if e != nil {
			e.cancel = true
		}
		return
	}
	e.cancel = true
	c.events.remove(e.index)
	c.recycle(e)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false if the queue is empty.
func (c *Clock) Step() bool {
	for len(c.events) > 0 {
		e := c.events.remove(0)
		if e.cancel {
			c.recycle(e)
			continue
		}
		c.now = e.at
		c.fired++
		e.fn(c.now)
		// Recycle only after the callback returns: a Cancel of the firing
		// event from inside its own callback must find the original, not a
		// reissued allocation.
		c.recycle(e)
		return true
	}
	return false
}

// Run fires events until the queue is empty or until limit events have fired
// (limit <= 0 means no limit). It returns the number of events fired.
func (c *Clock) Run(limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		if !c.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil fires events with timestamps <= deadline, advancing the clock to
// the deadline afterwards even if no event lands exactly there.
func (c *Clock) RunUntil(deadline Time) {
	for len(c.events) > 0 {
		// Peek.
		next := c.events[0]
		if next.cancel {
			c.recycle(c.events.remove(0))
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

// NextEventTime returns the timestamp of the next pending event, or Forever
// if the queue is empty.
func (c *Clock) NextEventTime() Time {
	for len(c.events) > 0 {
		if c.events[0].cancel {
			c.recycle(c.events.remove(0))
			continue
		}
		return c.events[0].at
	}
	return Forever
}

// Advance moves the clock forward by d without firing events. It panics if an
// event is pending within the window, since skipping it would corrupt the
// simulation.
func (c *Clock) Advance(d Duration) {
	target := c.now.Add(d)
	if next := c.NextEventTime(); next < target {
		panic(fmt.Sprintf("vtime: Advance(%d) would skip event at %v", d, next))
	}
	c.now = target
}
