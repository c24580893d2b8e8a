package client

import (
	"math/rand"
	"sync"
	"time"
)

// Breaker is the control plane's one circuit breaker: when is a peer
// skipped. Closed, every attempt is admitted; tripAfter consecutive failures
// open it, and an open circuit refuses every attempt until cooldown has
// passed. Then it is half-open: exactly one attempt is admitted as a probe,
// whose failure re-opens the circuit at once (a fresh cooldown, not
// tripAfter more failures) and whose success closes it. A client holds one
// for backpressured launches; the fleet Dialer holds one per member.
//
// Every admitted attempt's Ticket must be given back once: to Settle (the
// attempt's final outcome) or Cancel (it ended without a verdict). A leaked
// probe would wedge the breaker, since nothing could ever close it again.
type Breaker struct {
	tripAfter int
	cooldown  time.Duration
	now       func() time.Time // time.Now; the state-machine test steps it

	mu       sync.Mutex
	fails    int // consecutive failed attempts
	openedAt time.Time
	open     bool
	probing  bool // the single half-open probe is in flight
}

// Ticket is one admitted attempt. Only the half-open probe's own ticket
// releases the probe slot: an attempt admitted while the circuit was closed
// and settled after it opened cannot let a second probe out.
type Ticket struct{ probe bool }

// NewBreaker builds a closed breaker.
func NewBreaker(tripAfter int, cooldown time.Duration) *Breaker {
	return &Breaker{tripAfter: tripAfter, cooldown: cooldown, now: time.Now}
}

// Admit reports whether an attempt may proceed — always while closed, never
// inside an open circuit's cooldown, and once, as the probe, after it — and
// hands out the attempt's ticket.
func (b *Breaker) Admit() (Ticket, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return Ticket{}, true
	}
	if b.probing || b.now().Sub(b.openedAt) < b.cooldown {
		return Ticket{}, false
	}
	b.probing = true
	return Ticket{probe: true}, true
}

// Settle records an admitted attempt's final outcome: success closes the
// circuit and clears the count, failure counts toward (or re-trips) it.
func (b *Breaker) Settle(t Ticket, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.probe {
		b.probing = false
	}
	if ok {
		b.fails = 0
		b.open = false
		return
	}
	b.fails++
	if b.fails >= b.tripAfter {
		b.open = true
		b.openedAt = b.now()
	}
}

// Cancel gives a ticket back without judging the peer: the attempt ended for
// a reason that says nothing about it (the caller's context was canceled, or
// another candidate won before this one was tried), so the circuit state is
// untouched and a probe's slot is returned.
func (b *Breaker) Cancel(t Ticket) {
	if !t.probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// backoffWait is the control plane's one retry schedule: how long before
// retry n (1-based). base doubles per earlier retry up to max — it stops
// there, so a large n cannot overflow — and the wait is half of that plus a
// draw from rng up to the other half, so restarted clients spread out
// instead of returning in step. The caller serializes access to rng.
func backoffWait(rng *rand.Rand, base, max time.Duration, n int) time.Duration {
	delay := base
	for i := 1; i < n && delay < max; i++ {
		delay *= 2
	}
	if delay > max {
		delay = max
	}
	return delay/2 + time.Duration(rng.Int63n(int64(delay)/2+1))
}
