package fleet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"slate/internal/client"
)

// maxHedges caps the extra candidates one Connect may race beyond the first.
const maxHedges = 2

// Dialer is the client side of the fleet: placement-aware connection
// establishment with a capped hedged race (Connect) and a circuit breaker
// per member. A member that keeps failing trips its breaker and is skipped
// until a cooldown, after which one Connect probes it once — a dead member
// costs one timeout per cooldown, not one per connect.
type Dialer struct {
	sup *Supervisor

	// Hedge is how long to wait on a ping before also trying the next
	// candidate (default 25ms).
	Hedge time.Duration
	// ProbeTimeout bounds one member ping (default: supervisor's
	// PingTimeout).
	ProbeTimeout time.Duration
	// TripAfter consecutive failed attempts open a member's breaker
	// (default 3); Cooldown is how long it stays open (default 250ms). Each
	// breaker is built on first use, so set them before the first Connect.
	TripAfter int
	Cooldown  time.Duration

	mu  sync.Mutex
	brk map[string]*client.Breaker
}

// NewDialer builds a fleet-aware dialer over this supervisor's directory.
func (s *Supervisor) NewDialer() *Dialer {
	return &Dialer{
		sup:          s,
		Hedge:        25 * time.Millisecond,
		ProbeTimeout: s.cfg.PingTimeout,
		TripAfter:    3,
		Cooldown:     250 * time.Millisecond,
		brk:          map[string]*client.Breaker{},
	}
}

// DialFor returns a dial function pinned to one member, shaped for
// client.DialRetry and Client.Resume — the way a client reaches its
// session's (possibly re-homed) home.
func (d *Dialer) DialFor(name string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		m := d.sup.MemberByName(name)
		if m == nil {
			return nil, fmt.Errorf("fleet: dial %q: %w", name, errFleetUnavailable)
		}
		return m.Dial()()
	}
}

// Connect opens a transport to a healthy fleet member, preferring the named
// one (""= no preference, pure placement order). Returns the connection and
// the name of the member it reached; every attempt failing is
// errFleetUnavailable.
//
// It is the fleet's one hedged race: the first candidate is pinged, the next
// joins whenever Hedge passes in silence or an attempt fails, and the first
// ping to answer wins a fresh dial (the ping runs on the supervisor's own
// throwaway connection, under ProbeTimeout's deadline, and is closed; the
// caller's session gets a transport that has carried nothing and has no
// deadline set). Each attempt settles its member's breaker once,
// with its final outcome — a good ping whose dial then failed is a failure.
// A candidate never launched gives its admit back: a race that ended early
// is no evidence about it. One still in flight when another won keeps its
// admit — a half-open member's single probe stays single — and settles with
// its ping's own outcome when that returns, at most ProbeTimeout later.
func (d *Dialer) Connect(prefer string) (net.Conn, string, error) {
	cands := d.candidates(prefer)
	if len(cands) == 0 {
		return nil, "", fmt.Errorf("fleet: connect: %w", errFleetUnavailable)
	}
	type pinged struct {
		candidate
		err error
	}
	resCh := make(chan pinged, len(cands)) // buffered: no attempt ever blocks on it
	idx, active := 0, 0
	defer func() {
		for _, c := range cands[idx:] {
			d.breaker(c.m.Name).Cancel(c.ticket)
		}
		if active > 0 {
			go func(inFlight int) {
				for ; inFlight > 0; inFlight-- {
					r := <-resCh
					d.breaker(r.m.Name).Settle(r.ticket, r.err == nil)
				}
			}(active)
		}
	}()
	launch := func() {
		c := cands[idx]
		idx++
		active++
		go func() {
			res, err := d.sup.ping(c.m, d.ProbeTimeout)
			if err == nil && res.draining {
				err = fmt.Errorf("fleet: probe %s: draining", c.m.Name)
			}
			resCh <- pinged{c, err}
		}()
	}
	launch()
	timer := time.NewTimer(d.Hedge)
	defer timer.Stop()
	var lastErr error
	for active > 0 {
		select {
		case r := <-resCh:
			active--
			m, err := r.m, r.err
			var nc net.Conn
			if err == nil {
				nc, err = m.Dial()() // may be cut between ping and dial
			}
			d.breaker(m.Name).Settle(r.ticket, err == nil)
			if err == nil {
				return nc, m.Name, nil
			}
			lastErr = err
			if idx < len(cands) {
				launch()
				timer.Reset(d.Hedge)
			}
		case <-timer.C:
			if idx < len(cands) {
				launch()
			}
		}
	}
	return nil, "", fmt.Errorf("fleet: connect: %v: %w", lastErr, errFleetUnavailable)
}

// candidate is a member a Connect may try, with its breaker's ticket.
type candidate struct {
	m      *Member
	ticket client.Ticket
}

// candidates orders the members a Connect may try: the preferred member
// first, then routing order, skipping unhealthy members and members whose
// breaker does not admit the attempt, capped at 1+maxHedges. Every
// candidate holds a ticket that Connect must settle or cancel.
func (d *Dialer) candidates(prefer string) []candidate {
	var out []candidate
	add := func(m *Member) {
		if m == nil || len(out) > maxHedges || m.State() != StateUp {
			return
		}
		if t, ok := d.breaker(m.Name).Admit(); ok {
			out = append(out, candidate{m, t})
		}
	}
	if prefer != "" {
		add(d.sup.MemberByName(prefer))
	}
	for _, m := range d.sup.Members() {
		if m.Name != prefer { // judged once: Admit may hand out the probe slot
			add(m)
		}
	}
	return out
}

// breaker returns the named member's circuit, built on first use.
func (d *Dialer) breaker(name string) *client.Breaker {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.brk[name]
	if b == nil {
		b = client.NewBreaker(d.TripAfter, d.Cooldown)
		d.brk[name] = b
	}
	return b
}
