package fault

import (
	"errors"
	"net"
	"sync/atomic"
	"time"
)

// errDegraded tags every transport failure the degrade injector
// manufactures — a flaky NIC dropping a frame mid-op — so tests can tell a
// gray member's flakiness from organic errors.
var errDegraded = errors.New("fault: degraded link dropped the op")

// Degrade sites: each draws from its own deterministic counter stream.
const (
	// siteDegradeStall delays a read on a degraded member's link.
	siteDegradeStall = "degrade.op.stall"
	// siteDegradeDrop tears a write on a degraded member's link: a partial
	// frame lands, then the conn dies.
	siteDegradeDrop = "degrade.op.drop"
)

// DegradeConfig shapes a gray failure: how often ops stall, for how long,
// and how often the link flakily drops one.
type DegradeConfig struct {
	// Seed selects the deterministic decision stream.
	Seed int64
	// StallProb stalls a transport read with this probability.
	StallProb float64
	// StallMin/StallMax bound the injected per-op stall (defaults 5ms/40ms).
	StallMin, StallMax time.Duration
	// DropProb tears a transport write (partial frame, then the conn dies)
	// with this probability — the flaky half of a gray member.
	DropProb float64
}

// Degrade makes one member persistently slow and jittery WITHOUT killing
// it: while active, every connection dialed through Wrap suffers seeded
// per-op stalls and occasional partial-write drops. The member still
// answers pings and still makes progress — the gray-failure mode a
// silence-based phi detector cannot see, and the one the fleet's
// latency-accrual SlowDetector exists to catch. Recover() turns the
// degradation off again so re-admission can be exercised.
type Degrade struct {
	cfg DegradeConfig
	inj *Injector
	on  atomic.Bool
}

// NewDegrade builds an inactive degrade injector.
func NewDegrade(cfg DegradeConfig) *Degrade {
	if cfg.StallMin <= 0 {
		cfg.StallMin = 5 * time.Millisecond
	}
	if cfg.StallMax < cfg.StallMin {
		cfg.StallMax = 8 * cfg.StallMin
	}
	return &Degrade{cfg: cfg, inj: New(Config{Seed: cfg.Seed})}
}

// Degrade turns the gray failure on: subsequent ops on wrapped conns stall
// and drop per the config.
func (d *Degrade) Degrade() { d.on.Store(true) }

// Recover turns the gray failure off; already-dropped conns stay dead
// (recovering hardware does not resurrect torn TCP streams).
func (d *Degrade) Recover() { d.on.Store(false) }

// Active reports whether the member is currently degraded.
func (d *Degrade) Active() bool { return d.on.Load() }

// Wrap composes the degradation over a member's dialer (typically already
// wrapped by a Partition): while active, returned conns stall reads and
// occasionally drop an op.
func (d *Degrade) Wrap(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &Conn{Conn: c, stall: d.opStall, tear: d.opDrop}, nil
	}
}

// hit draws site's next decision at probability p while the member is
// degraded. It rolls exactly when Injector.fire would (never for p <= 0),
// so the verdicts are fire's for the same seed; nothing reads a Degrade's
// fired-fault log, so unlike fire it records none.
func (d *Degrade) hit(site string, p float64) bool {
	if !d.Active() || p <= 0 {
		return false
	}
	v, _ := d.inj.roll(site)
	return v < p
}

// opStall stalls a read for StallMin..StallMax at StallProb while active.
func (d *Degrade) opStall() time.Duration {
	if !d.hit(siteDegradeStall, d.cfg.StallProb) {
		return 0
	}
	v, _ := d.inj.roll(siteDegradeStall + ".len")
	return d.cfg.StallMin + time.Duration(v*float64(d.cfg.StallMax-d.cfg.StallMin))
}

// opDrop flakily drops a write at DropProb while active: a torn prefix
// lands, the conn dies, and the caller sees errDegraded — the client must
// redial and replay, exactly as with a crashing peer.
func (d *Degrade) opDrop() (torn bool, err error) {
	if d.hit(siteDegradeDrop, d.cfg.DropProb) {
		return true, errDegraded
	}
	return false, nil
}
