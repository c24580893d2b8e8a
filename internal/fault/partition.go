package fault

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// errPartitioned tags every failure the partition injector manufactures, so
// tests can tell a severed link from an organic transport error.
var errPartitioned = errors.New("fault: network partitioned")

// PartitionMode selects how a cut link misbehaves.
type PartitionMode int

const (
	// PartitionReject fails new dials immediately (an RST-style partition:
	// the router answers, the host is gone). Deterministic, so chaos legs
	// that must be byte-identical across runs use it.
	PartitionReject PartitionMode = iota
	// PartitionDrop blackholes new dials: the connection "opens" but no
	// byte ever arrives, exactly like a firewall silently dropping packets.
	// Callers only escape via read deadlines — the case hedged dialing and
	// ping timeouts exist for.
	PartitionDrop
)

// Partition simulates a network partition around one daemon: while cut, new
// dials are rejected or blackholed (per mode) and every previously tracked
// connection is severed, as a real link failure would tear established TCP
// sessions. Heal restores dialing; severed connections stay dead.
type Partition struct {
	mode PartitionMode

	mu    sync.Mutex
	cut   bool
	cuts  int
	conns map[net.Conn]struct{}
}

// NewPartition builds a healed partition injector.
func NewPartition(mode PartitionMode) *Partition {
	return &Partition{mode: mode, conns: map[net.Conn]struct{}{}}
}

// Cut severs the link: tracked connections close now, and new dials fail
// (reject mode) or blackhole (drop mode) until Heal.
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
// tracked (so Cut severs them); cut dials fail per the mode.
func (p *Partition) Dial(dial func() net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		p.mu.Lock()
		cut, mode := p.cut, p.mode
		p.mu.Unlock()
		if !cut {
			return p.track(dial()), nil
		}
		if mode == PartitionReject {
			return nil, errPartitioned
		}
		return newBlackholeConn(), nil
	}
}

// blackholeConn is a "connected" transport across a drop-mode partition: it
// swallows writes and never delivers a byte. Reads block until the read
// deadline expires (os.ErrDeadlineExceeded, like any slow peer) or the conn
// is closed; without a deadline they block until Close.
type blackholeConn struct {
	mu       sync.Mutex
	deadline time.Time
	closed   chan struct{}
	once     sync.Once
}

func newBlackholeConn() *blackholeConn {
	return &blackholeConn{closed: make(chan struct{})}
}

func (b *blackholeConn) Read(p []byte) (int, error) {
	for {
		b.mu.Lock()
		deadline := b.deadline
		b.mu.Unlock()
		var wait time.Duration
		if !deadline.IsZero() {
			wait = time.Until(deadline)
			if wait <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
		}
		// Poll coarsely so deadline updates land without a wakeup channel.
		step := 5 * time.Millisecond
		if wait > 0 && wait < step {
			step = wait
		}
		select {
		case <-b.closed:
			return 0, errPartitioned
		case <-time.After(step):
		}
	}
}

func (b *blackholeConn) Write(p []byte) (int, error) {
	select {
	case <-b.closed:
		return 0, errPartitioned
	default:
		return len(p), nil // swallowed by the void
	}
}

func (b *blackholeConn) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

func (b *blackholeConn) LocalAddr() net.Addr  { return blackholeAddr{} }
func (b *blackholeConn) RemoteAddr() net.Addr { return blackholeAddr{} }

func (b *blackholeConn) SetDeadline(t time.Time) error { return b.SetReadDeadline(t) }

func (b *blackholeConn) SetReadDeadline(t time.Time) error {
	b.mu.Lock()
	b.deadline = t
	b.mu.Unlock()
	return nil
}

func (b *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

type blackholeAddr struct{}

func (blackholeAddr) Network() string { return "blackhole" }
func (blackholeAddr) String() string  { return "blackhole" }
