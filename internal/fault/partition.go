package fault

import (
	"errors"
	"net"
	"sync"
)

// errPartitioned tags every failure the partition injector manufactures, so
// tests can tell a severed link from an organic transport error.
var errPartitioned = errors.New("fault: network partitioned")

// Partition simulates a network partition around one daemon: while cut, new
// dials fail immediately (an RST-style partition: the router answers, the
// host is gone — deterministic, so chaos legs that must be byte-identical
// across runs can use it) and every previously tracked connection is
// severed, as a real link failure would tear established TCP sessions. Heal
// restores dialing; severed connections stay dead.
type Partition struct {
	mu    sync.Mutex
	cut   bool
	cuts  int
	conns map[net.Conn]struct{}
}

// NewPartition builds a healed partition injector.
func NewPartition() *Partition {
	return &Partition{conns: map[net.Conn]struct{}{}}
}

// Cut severs the link: tracked connections close now, and new dials fail
// until Heal.
func (p *Partition) Cut() {
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		return
	}
	p.cut = true
	p.cuts++
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = map[net.Conn]struct{}{}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Heal restores the link for new dials. Connections severed by Cut stay
// dead — surviving a partition means reconnecting, not resuming a torn TCP
// stream.
func (p *Partition) Heal() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// Severed reports whether the link is currently cut.
func (p *Partition) Severed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut
}

// Cuts reports how many times the link has been cut.
func (p *Partition) Cuts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts
}

// track registers a connection so a later Cut severs it; returns c for
// chaining. Closed connections are forgotten lazily (the map only grows per
// live dial).
func (p *Partition) track(c net.Conn) net.Conn {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return c
}

// Dial wraps a transport dialer with the partition: healthy dials are
// tracked (so Cut severs them); cut dials fail.
func (p *Partition) Dial(dial func() net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		p.mu.Lock()
		cut := p.cut
		p.mu.Unlock()
		if !cut {
			return p.track(dial()), nil
		}
		return nil, errPartitioned
	}
}
