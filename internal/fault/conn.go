package fault

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// errInjected tags every transport error the injector manufactures, so tests
// can tell injected failures from organic ones.
var errInjected = errors.New("fault: injected transport failure")

// Conn is the one faulty net.Conn: reads may stall, writes may be replaced
// by a connection reset or a torn (half-written) frame followed by a reset.
// It models a flaky link, a gray member, and a client that crashes
// mid-command alike; what differs between them is only who decides, so each
// owner — Injector.WrapConn, Degrade.Wrap — hands it its two seeded
// decisions and the mechanics live here once.
type Conn struct {
	net.Conn
	// stall draws this read's injected delay (0 = none).
	stall func() time.Duration
	// tear draws this write's fate: a nil error delivers it; otherwise the
	// transport is closed and the error returned, after half the frame when
	// torn is set.
	tear func() (torn bool, err error)

	mu           sync.Mutex
	readDeadline time.Time
}

// WrapConn attaches the injector's transport faults to a connection.
func (i *Injector) WrapConn(c net.Conn) *Conn {
	return &Conn{Conn: c, stall: i.readStall, tear: i.writeFate}
}

// readStall delays a read by up to DelayMax at ReadDelayProb.
func (i *Injector) readStall() time.Duration {
	if !i.fire(siteReadDelay, i.cfg.ReadDelayProb, "delay") {
		return 0
	}
	v, _ := i.roll(siteReadDelay + ".len")
	return time.Duration(v * float64(i.cfg.DelayMax))
}

// writeFate resets a write at WriteResetProb, else tears it at
// WriteTruncateProb. A reset that fires skips the truncate roll, so each
// site's counter advances exactly as the fired-fault trace says.
func (i *Injector) writeFate() (torn bool, err error) {
	if i.fire(siteWriteReset, i.cfg.WriteResetProb, "reset") {
		return false, errInjected
	}
	if i.fire(siteWriteTruncate, i.cfg.WriteTruncateProb, "truncate") {
		return true, errInjected
	}
	return false, nil
}

// SetReadDeadline records the deadline so injected stalls honor it, then
// forwards to the wrapped connection.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline sets both read and write deadlines; the read half is recorded
// for stall capping like SetReadDeadline.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Read delivers bytes, possibly after an injected stall. The stall respects
// any read deadline: sleeping never overshoots it, and a stall that would
// cross it returns os.ErrDeadlineExceeded exactly like a peer that answered
// too late — an injected fault slows callers down, it must not defeat their
// timeouts.
func (c *Conn) Read(p []byte) (int, error) {
	if stall := c.stall(); stall > 0 {
		c.mu.Lock()
		deadline := c.readDeadline
		c.mu.Unlock()
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if stall >= remain {
				if remain > 0 {
					time.Sleep(remain)
				}
				return 0, os.ErrDeadlineExceeded
			}
		}
		time.Sleep(stall)
	}
	return c.Conn.Read(p)
}

// Write sends bytes, or injects a reset / torn write. After a fault the
// underlying connection is closed: every later operation fails, exactly like
// a peer whose process died.
func (c *Conn) Write(p []byte) (int, error) {
	torn, err := c.tear()
	if err == nil {
		return c.Conn.Write(p)
	}
	if torn && len(p) > 1 {
		_, _ = c.Conn.Write(p[:len(p)/2])
	}
	c.Conn.Close()
	return 0, err
}
