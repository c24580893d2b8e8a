// Session is the fleet-aware client wrapper that makes planned restarts
// invisible to user code. A raw client pinned to one member surfaces
// ErrDraining/ErrDaemonDown when its home drains or restarts; the wrapper
// catches those, consults Locate for the session's current home (which a
// planned migration re-points with ErrRehomed), redials that home through
// the fleet dialer, Resumes the session by its token, and replays or retries
// the interrupted op — exactly once, because the resume path re-sends
// in-flight ops under their original op IDs and the daemon's dedup window
// settles them.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"slate/internal/client"
	"slate/internal/kern"
)

// Session is a fleet session: a client plus the re-homing logic that
// follows it across migrations and failovers. Methods are safe for one
// caller at a time (like the underlying client's launch/sync sequencing, a
// session is a single logical stream of work).
type Session struct {
	sup  *Supervisor
	dial *Dialer

	mu       sync.Mutex
	c        *client.Client
	home     string
	degraded bool
}

// OpenSession places a new session on a healthy member (Route) and opens a
// fleet-aware client on it.
func (s *Supervisor) OpenSession(proc string, opts ...client.Option) (*Session, error) {
	m, err := s.Route("")
	if err != nil {
		return nil, err
	}
	d := s.NewDialer()
	nc, err := d.DialFor(m.Name)()
	if err != nil {
		return nil, fmt.Errorf("fleet: open session on %s: %w", m.Name, err)
	}
	c, err := client.New(nc, proc, opts...)
	if err != nil {
		return nil, fmt.Errorf("fleet: open session on %s: %w", m.Name, err)
	}
	return &Session{sup: s, dial: d, c: c, home: m.Name}, nil
}

// Home returns the member currently homing this session.
func (s *Session) Home() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.home
}

// Degraded reports whether any re-home lost durable state (the session was
// resumed fresh instead of recovered). In a durable fleet this staying
// false is the zero-loss invariant chaos drivers assert.
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// rehomeable reports whether an op failure means "the home moved or is
// moving" rather than a real rejection: severed transports, deadline
// expiries against a blackholed member, and draining refusals all re-home;
// everything else (poison, quota, version skew...) surfaces to the caller.
func rehomeable(err error) bool {
	return errors.Is(err, client.ErrDaemonDown) ||
		errors.Is(err, client.ErrTimeout) ||
		errors.Is(err, client.ErrDraining)
}

// rehome moves the session to its current home: consult Locate (waiting
// out the mid-migration window where the token is not yet re-published),
// redial, Resume by token. Reports whether the daemon recovered durable
// state (true) or the session restarted fresh (false).
// Called with s.mu held.
func (s *Session) rehomeLocked() (recovered bool, err error) {
	const (
		attempts = 600
		pause    = 2 * time.Millisecond
	)
	var lastErr error
	for i := 0; i < attempts; i++ {
		home, lerr := s.sup.Locate(s.c.Token(), s.home)
		if lerr != nil && !errors.Is(lerr, ErrRehomed) {
			// Mid-migration: the old home is draining and the new one is not
			// published yet. The window closes when Migrate updates the
			// re-homing table (or a fallback failover does).
			lastErr = lerr
			time.Sleep(pause)
			continue
		}
		recovered, rerr := s.c.Resume(s.dial.DialFor(home), client.RetryConfig{
			Attempts: 3, BaseDelay: pause, MaxDelay: 8 * pause,
		})
		if rerr != nil {
			if errors.Is(rerr, client.ErrVersionSkew) || errors.Is(rerr, client.ErrSessionLost) {
				// Version skew is a hard refusal; session loss in a durable
				// fleet is an invariant violation. Neither heals by retrying.
				return false, rerr
			}
			// Draining (the new home is itself mid-restart) or still
			// unreachable: re-locate and try again.
			lastErr = rerr
			time.Sleep(pause)
			continue
		}
		s.home = home
		if !recovered {
			s.degraded = true
		}
		return recovered, nil
	}
	return false, fmt.Errorf("fleet: session %x: re-home exhausted (%v): %w", s.c.Token(), lastErr, errFleetUnavailable)
}

// do runs one client op with transparent re-homing. If the op's transport
// died mid-flight with a stamped launch pending, the resume path replays it
// under its original op ID — in that case do returns success WITHOUT
// re-invoking op (a re-invocation would mint a fresh op ID and execute a
// second time). Ops refused cleanly (draining) were never accepted, so they
// are safely re-invoked on the new home.
func (s *Session) do(op func(c *client.Client) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	const rehomes = 4
	err := op(s.c)
	for i := 0; err != nil && i < rehomes; i++ {
		if !rehomeable(err) {
			return err
		}
		pendingBefore := len(s.c.PendingOps()) > 0
		recovered, rerr := s.rehomeLocked()
		if rerr != nil {
			return fmt.Errorf("%v: %w", err, rerr)
		}
		if recovered && pendingBefore {
			// The interrupted launch was replayed during Resume and settled
			// exactly once on the new home; its detailed reply is gone, but
			// the op is done.
			return nil
		}
		err = op(s.c)
	}
	return err
}

// LaunchSourceDegraded launches a source kernel, following the session
// across restarts. If the launch is interrupted mid-flight and settled by
// the resume replay, entries/degraded are zero values (the original reply
// is not reconstructible) but the launch ran exactly once.
func (s *Session) LaunchSourceDegraded(source, kernel string, grid, block kern.Dim3, taskSize int) (entries []string, degraded bool, err error) {
	err = s.do(func(c *client.Client) error {
		var lerr error
		entries, degraded, lerr = c.LaunchSourceDegraded(source, kernel, grid, block, taskSize)
		return lerr
	})
	return entries, degraded, err
}

// Synchronize drains the session's outstanding work, following the session
// across restarts.
func (s *Session) Synchronize() error {
	return s.do(func(c *client.Client) error { return c.Synchronize() })
}

// Close ends the session. A close racing a migration follows the session
// first so the durable state is retired on its final home, not leaked.
func (s *Session) Close() error {
	return s.do(func(c *client.Client) error { return c.Close() })
}
