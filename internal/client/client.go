// Package client is the Slate user-side library (§IV-A1): a thin wrapper
// over the CUDA-like API whose calls travel the command channel to the
// daemon, while bulk data lives in shared buffers. In-process clients get
// zero-copy buffer views; remote clients move bytes through explicit
// transfer commands.
package client

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// Typed sentinel errors. Every failure a call returns wraps one of these
// (or none, for plain command rejections), so callers branch with
// errors.Is instead of parsing strings.
var (
	// ErrTimeout: a per-op deadline expired; the connection is abandoned
	// because a half-read frame cannot be resynchronized.
	ErrTimeout = errors.New("operation timed out")
	// ErrDaemonDown: the transport failed or the daemon is unreachable.
	ErrDaemonDown = errors.New("daemon unavailable")
	// ErrDeviceOOM: device memory allocation failed.
	ErrDeviceOOM = ipc.ErrDeviceOOM
	// ErrKernelPanic: a kernel body panicked; the session is poisoned
	// (CUDA sticky-context semantics).
	ErrKernelPanic = daemon.ErrKernelPanic
	// ErrKernelTimeout: a launch was abandoned by the daemon's containment
	// deadline; the session is poisoned like a panic.
	ErrKernelTimeout = daemon.ErrKernelTimeout
	// ErrBackpressure: the session's launch queue is full; retry after
	// backing off (WithBackpressureRetry does this automatically).
	ErrBackpressure = daemon.ErrBackpressure
	// ErrQuota: the request would exceed a per-session resource quota.
	ErrQuota = daemon.ErrQuota
	// ErrDraining: the daemon is shutting down and admits no new work.
	ErrDraining = daemon.ErrDraining
	// ErrCircuitOpen: repeated backpressure rejections opened the client's
	// circuit breaker; launches fail fast until the cooldown elapses.
	ErrCircuitOpen = errors.New("circuit open after repeated rejections")
	// ErrDuplicateOp: the daemon already accepted this op, but its outcome
	// has aged out of the dedup window; the launch ran exactly once, the
	// original reply is gone.
	ErrDuplicateOp = ipc.ErrDuplicateOp
	// ErrSessionLost: the daemon restarted without durable state (or the
	// resume token is unknown); the session restarts fresh and in-flight
	// work from the old incarnation is gone.
	ErrSessionLost = errors.New("session state lost across daemon restart")
	// ErrVersionSkew: the daemon speaks a different protocol version; this
	// client must connect to a member running its own version. Not
	// retryable on the same daemon.
	ErrVersionSkew = daemon.ErrVersionSkew
	// ErrExpired: the launch's propagated deadline passed before the daemon
	// executed it (shed at admission or at the queue head). The launch did
	// NOT run. Not retried by the backpressure loop — the client's own
	// timeout budget for the op is what expired.
	ErrExpired = daemon.ErrExpired
)

// opError is a failed command: the op, the daemon's message, and the typed
// cause (nil for plain rejections).
type opError struct {
	op   ipc.Op
	msg  string
	kind error
	// unsent marks a call that failed fast on an already broken transport:
	// nothing was stamped, sent or noted pending, so Resume will never
	// replay it.
	unsent bool
}

func (e *opError) Error() string { return fmt.Sprintf("client: %s: %s", e.op, e.msg) }
func (e *opError) Unwrap() error { return e.kind }

// Buffer is a device allocation visible to the client.
type Buffer struct {
	Handle uint64
	// DevPtr is the daemon-recorded device pointer (opaque).
	DevPtr uint64
	// Data is the zero-copy view for in-process clients; nil for remote.
	Data []byte
	size int64
}

// Size returns the allocation size.
func (b *Buffer) Size() int64 { return b.size }

// Session returns the daemon-assigned session ID from the handshake. Locked:
// Resume rewrites the ID on re-home, and callers probe it concurrently.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// Token returns the resume token from the handshake: zero when the daemon
// runs without durability, otherwise the handle Resume presents after a
// daemon restart to reattach this session.
func (c *Client) Token() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Client is one application process's connection to the Slate daemon.
type Client struct {
	conn  *ipc.Conn
	reg   *ipc.BufferRegistry // shared registry when in-process
	specs *daemon.SpecTable   // shared spec table when in-process

	// timeout bounds each command round trip (0 = wait forever).
	timeout time.Duration
	// launchDeadline, when set, rides each stamped launch as an absolute
	// wire deadline so the daemon sheds the work (CodeExpired) instead of
	// executing it once the deadline passes unserved.
	launchDeadline time.Duration
	// sess is the daemon-assigned session ID from the hello reply; it tags
	// spec deposits so the daemon can purge orphans on disconnect.
	sess uint64
	// proc is the client-reported process name, replayed on Resume so a
	// fresh session (state lost) keeps its identity.
	proc string
	// bp is the circuit that retry-exhausted launches feed (nil = launches
	// surface ErrBackpressure directly); backoff shapes the retries before
	// that, and rng, guarded by rngMu, draws their jitter.
	bp      *Breaker
	backoff BackoffConfig
	rngMu   sync.Mutex
	rng     *rand.Rand
	// ctx, when set via WithContext, cancels waits inside retry backoff
	// loops (backpressure retries, DialRetryContext, Resume redials).
	ctx context.Context

	mu     sync.Mutex
	seq    uint64
	broken error // sticky transport failure; all later calls fail fast
	// token is the durable resume token (0 = daemon has no durability).
	token uint64
	// nextOp numbers launches for exactly-once replay: each launch carries
	// a monotonic per-session op ID the daemon journals and dedups on.
	// Stamped under mu in the same critical section as the send, so wire
	// order equals op-ID order — the daemon's monotonic dedup watermark
	// (MaxOp) depends on never seeing a fresh op below an already-seen one.
	nextOp uint64
	// waiters holds the in-flight calls awaiting replies, keyed by Seq. The
	// call path is pipelined: mu is released after the send, and whichever
	// waiter holds recvMu pumps replies off the transport, delivering each to
	// its waiter's buffered channel. Guarded by waitMu, NOT mu: the pumper
	// must be able to route a reply while a sender holds mu across a blocked
	// SendRequest, or an unbuffered transport (net.Pipe) deadlocks — sender
	// blocked writing, daemon blocked replying, pumper blocked on mu.
	waiters map[uint64]*waiter
	// pending is the set of stamped launches whose fates a transport failure
	// left unknown, by op ID; Resume re-sends each, as a frame of one, under
	// its original op ID, and the daemon's dedup window answers with the
	// original outcome for any that were already accepted.
	pending map[uint64]ipc.BatchItem

	// recvMu elects the reply pumper: exactly one waiter at a time reads the
	// transport and routes replies by Seq. Never held together with mu by the
	// same goroutine except in the documented pump order (recvMu, then mu).
	recvMu sync.Mutex

	// waitMu guards waiters alone and is never held across transport I/O.
	// Lock order: mu before waitMu; the pumper's reply-routing fast path
	// takes waitMu without mu.
	waitMu sync.Mutex
}

// waiter is one in-flight call: the request (kept for pending-op tracking on
// failure) and the buffered channel its result is delivered on. The channel
// has capacity 1 and receives exactly one callResult, so delivery never
// blocks the pumper.
type waiter struct {
	req *ipc.Request
	ch  chan callResult
}

// callResult is one call's terminal outcome as routed by the reply pumper.
type callResult struct {
	rep *ipc.Reply
	err error
}

// Option configures a Client.
type Option func(*Client)

// WithShared attaches the daemon's registry and spec table for in-process
// zero-copy operation.
func WithShared(reg *ipc.BufferRegistry, specs *daemon.SpecTable) Option {
	return func(c *Client) {
		c.reg = reg
		c.specs = specs
	}
}

// WithContext attaches a context whose cancellation aborts waits inside the
// client's retry loops: backpressure backoff between launch retries and
// redial backoff inside Resume. A canceled wait surfaces ctx.Err() via
// errors.Is. It does not interrupt an in-flight command round trip — use
// WithTimeout to bound those.
func WithContext(ctx context.Context) Option {
	return func(c *Client) { c.ctx = ctx }
}

// sleepCtx waits d or until ctx is canceled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BackoffConfig shapes the backpressure retry policy and circuit breaker.
// Zero fields take the documented defaults.
type BackoffConfig struct {
	// Attempts is how many times a backpressured launch is retried before
	// the rejection is surfaced (default 4).
	Attempts int
	// BaseDelay seeds the exponential backoff (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps each backoff step (default 50ms).
	MaxDelay time.Duration
	// TripAfter is how many consecutive retry-exhausted launches open the
	// circuit (default 3).
	TripAfter int
	// Cooldown is how long an open circuit fails fast before allowing a
	// probe launch through (default 100ms).
	Cooldown time.Duration
	// Seed makes the jitter deterministic for tests (default 1). Each
	// client mixes its process name in, so sharing a Seed does not make
	// clients back off in phase.
	Seed int64
}

func (bc BackoffConfig) withDefaults() BackoffConfig {
	if bc.Attempts <= 0 {
		bc.Attempts = 4
	}
	if bc.BaseDelay <= 0 {
		bc.BaseDelay = time.Millisecond
	}
	if bc.MaxDelay <= 0 {
		bc.MaxDelay = 50 * time.Millisecond
	}
	if bc.TripAfter <= 0 {
		bc.TripAfter = 3
	}
	if bc.Cooldown <= 0 {
		bc.Cooldown = 100 * time.Millisecond
	}
	if bc.Seed == 0 {
		bc.Seed = 1
	}
	return bc
}

// WithBackpressureRetry makes launches retry ErrBackpressure rejections
// with capped jittered exponential backoff, and opens a circuit breaker
// after repeated exhausted retries: launches then fail fast with
// ErrCircuitOpen, so a saturated daemon is not hammered, until the cooldown
// elapses and one launch probes.
func WithBackpressureRetry(bc BackoffConfig) Option {
	bc = bc.withDefaults()
	return func(c *Client) {
		c.bp = NewBreaker(bc.TripAfter, bc.Cooldown)
		c.backoff = bc
		// Options run after the client's proc is set, so the launch jitter
		// decorrelates across clients the same way dial retries do.
		c.rng = rand.New(rand.NewSource(jitterSeed(bc.Seed, c.proc)))
	}
}

// launchWait draws the wait before launch retry `attempt` (1-based).
func (c *Client) launchWait(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return backoffWait(c.rng, c.backoff.BaseDelay, c.backoff.MaxDelay, attempt)
}

// WithTimeout bounds every command round trip: a call that has not received
// its reply within d fails with ErrTimeout instead of blocking forever (a
// hung Synchronize included). The connection is then abandoned — the daemon
// is presumed hung, and a send cut off by its deadline leaves part of a frame
// on the wire that no later frame can follow — and later calls fail with
// ErrDaemonDown.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithLaunchDeadline propagates a per-launch deadline onto the wire: every
// stamped launch carries now+d as an absolute deadline, and a daemon that
// has not started the launch by then sheds it with ErrExpired (at
// admission, or at the queue head) instead of executing work nobody will
// use. Distinct from WithTimeout, which bounds only the ack round trip:
// launches are acked at accept and execute asynchronously, so the deadline
// — not the timeout — is what bounds their queue wait. The shed surfaces
// at the next Synchronize as a non-sticky ErrExpired.
func WithLaunchDeadline(d time.Duration) Option {
	return func(c *Client) { c.launchDeadline = d }
}

// New wraps a transport connection and performs the hello handshake.
func New(nc net.Conn, proc string, opts ...Option) (*Client, error) {
	c := &Client{
		conn:    ipc.NewConn(nc),
		proc:    proc,
		waiters: map[uint64]*waiter{},
		pending: map[uint64]ipc.BatchItem{},
	}
	for _, o := range opts {
		o(c)
	}
	rep, err := c.call(&ipc.Request{Op: ipc.OpHello, Proc: proc, Version: ipc.ProtocolVersion})
	if err != nil {
		c.conn.Close() // a refused handshake must not leak the transport
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.sess = rep.Session
	c.token = rep.Token
	return c, nil
}

// RetryConfig shapes DialRetry's exponential backoff. Zero fields take the
// documented defaults.
type RetryConfig struct {
	// Attempts is the total number of connection attempts (default 5).
	Attempts int
	// BaseDelay seeds the backoff before the second attempt (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests (default 1). Each
	// client mixes its process name in, so a herd of clients restarted with
	// identical configs still retries decorrelated.
	Seed int64
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts <= 0 {
		rc.Attempts = 5
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 10 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = time.Second
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	return rc
}

// jitterSeed derives a per-client rng seed: the configured seed mixed with
// the client's process name. A fleet of clients restarted together all
// carry the same config (and thus the same Seed), and seeding their jitter
// rngs identically made them back off in phase — every retry landed on the
// daemon in the same instant, defeating the jitter's whole purpose. Mixing
// the proc name decorrelates the herd while staying deterministic under a
// test seed: same (seed, proc) → same schedule, different proc → different
// schedule.
func jitterSeed(seed int64, proc string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(proc))
	return seed ^ int64(h.Sum64())
}

// retryWaits computes the jittered backoff waits a client with the given
// (defaulted) config and process name sleeps between connection attempts
// (waits[0] precedes attempt 2). DialRetryContext and Resume both draw
// their schedule from here; the thundering-herd regression test asserts on
// it directly instead of timing sleeps.
func retryWaits(rc RetryConfig, proc string) []time.Duration {
	rng := rand.New(rand.NewSource(jitterSeed(rc.Seed, proc)))
	waits := make([]time.Duration, 0, rc.Attempts)
	for attempt := 1; attempt < rc.Attempts; attempt++ {
		waits = append(waits, backoffWait(rng, rc.BaseDelay, rc.MaxDelay, attempt))
	}
	return waits
}

// DialRetry connects to the daemon with exponential backoff plus jitter:
// each failed dial or handshake doubles the delay (capped at MaxDelay), and
// a random half-delay jitter decorrelates stampeding clients after a daemon
// restart. The final failure wraps ErrDaemonDown.
func DialRetry(dial func() (net.Conn, error), proc string, rc RetryConfig, opts ...Option) (*Client, error) {
	return DialRetryContext(context.Background(), dial, proc, rc, opts...)
}

// DialRetryContext is DialRetry honoring ctx: cancellation aborts the wait
// between attempts (and pre-empts the next dial) with an error wrapping
// ctx.Err().
func DialRetryContext(ctx context.Context, dial func() (net.Conn, error), proc string, rc RetryConfig, opts ...Option) (*Client, error) {
	rc = rc.withDefaults()
	waits := retryWaits(rc, proc)
	var lastErr error
	for attempt := 0; attempt < rc.Attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, waits[attempt-1]); err != nil {
				return nil, fmt.Errorf("client: dial canceled after %d attempts: %w", attempt, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("client: dial canceled after %d attempts: %w", attempt, err)
		}
		nc, err := dial()
		if err != nil {
			lastErr = err
			continue
		}
		// Prepend so an explicit WithContext among opts still wins.
		c, err := New(nc, proc, append([]Option{WithContext(ctx)}, opts...)...)
		if err != nil {
			nc.Close()
			lastErr = err
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("client: dial failed after %d attempts: %v: %w", rc.Attempts, lastErr, ErrDaemonDown)
}

// Local connects a new in-process client to a daemon built with
// daemon.NewLocal.
func Local(srv *daemon.Server, dial func() net.Conn, proc string, opts ...Option) (*Client, error) {
	return New(dial(), proc, append([]Option{WithShared(srv.Registry, srv.Specs)}, opts...)...)
}

// call issues one synchronous command round trip, honoring the per-op
// deadline and mapping wire error codes back to typed sentinels. Transport
// failures are sticky: the first one poisons the client, and every later
// call fails fast with ErrDaemonDown.
//
// The round trip is pipelined: mu is held only across seq/op-ID stamping and
// the send (so wire order equals stamp order), then released while the reply
// is awaited. Concurrent calls each register a waiter keyed by Seq, and
// whichever waiter holds recvMu pumps replies off the transport, routing each
// to its waiter's buffered channel — a reply is always delivered before
// recvMu is released, and a waiter re-checks its channel after acquiring
// recvMu, so no wakeup is ever lost.
func (c *Client) call(req *ipc.Request) (*ipc.Reply, error) {
	return c.doCall(req, false)
}

// callStamped is call for launches: each batch item's op ID is stamped
// inside the send critical section. Each invocation stamps
// FRESH op IDs — a backpressure retry must re-stamp, because under pipelining
// a newer op may have been accepted since the rejected attempt, and re-using
// the old (now below-watermark) ID would be falsely rejected as a duplicate.
// Re-stamping is safe exactly because a definite rejection means the op was
// never accepted.
func (c *Client) callStamped(req *ipc.Request) (*ipc.Reply, error) {
	return c.doCall(req, true)
}

func (c *Client) doCall(req *ipc.Request, stamp bool) (*ipc.Reply, error) {
	c.mu.Lock()
	if c.broken != nil {
		c.mu.Unlock()
		return nil, &opError{op: req.Op, msg: c.broken.Error(), kind: ErrDaemonDown, unsent: true}
	}
	if stamp {
		for i := range req.Batch {
			c.nextOp++
			req.Batch[i].OpID = c.nextOp
		}
		// The per-op deadline rides the frame so the daemon can shed the
		// launch once nobody will use its result. Stamped fresh per
		// attempt, like the op ID: a backpressure retry restarts the
		// caller's wait, so it restarts the deadline too.
		if c.launchDeadline > 0 {
			req.Deadline = time.Now().Add(c.launchDeadline).UnixNano()
		}
	}
	c.seq++
	req.Seq = c.seq
	conn := c.conn
	w := &waiter{req: req, ch: make(chan callResult, 1)}
	c.waitMu.Lock()
	c.waiters[req.Seq] = w
	c.waitMu.Unlock()
	// Send under mu: concurrent senders serialize here, so the wire carries
	// requests in seq (and therefore op-ID) order. A write deadline bounds
	// the blocked-send window so a wedged daemon surfaces as ErrTimeout
	// instead of hanging the whole client behind mu.
	if c.timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	err := conn.SendRequest(req)
	if c.timeout > 0 {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		c.failLocked(err)
		c.mu.Unlock()
		<-w.ch // drain our own broadcast result
		if isTimeout(err) {
			return nil, &opError{op: req.Op, msg: fmt.Sprintf("no reply within %v", c.timeout), kind: ErrTimeout}
		}
		return nil, &opError{op: req.Op, msg: err.Error(), kind: ErrDaemonDown}
	}
	c.mu.Unlock()
	return c.awaitReply(conn, req, w.ch)
}

// awaitReply blocks until req's result is delivered, pumping the transport
// whenever no other waiter is. Exactly one result is ever delivered per
// waiter, so the channel reads cannot double-fire.
func (c *Client) awaitReply(conn *ipc.Conn, req *ipc.Request, ch chan callResult) (*ipc.Reply, error) {
	for {
		select {
		case res := <-ch:
			return c.finish(req, res)
		default:
		}
		c.recvMu.Lock()
		// Re-check after acquiring: another pumper may have delivered our
		// reply while we waited for the pump slot.
		select {
		case res := <-ch:
			c.recvMu.Unlock()
			return c.finish(req, res)
		default:
		}
		if c.timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.timeout))
		}
		rep, err := conn.RecvReply()
		if c.timeout > 0 {
			_ = conn.SetReadDeadline(time.Time{})
		}
		if err != nil {
			// Transport death (or deadline expiry: the daemon is presumed
			// hung, as WithTimeout says): poison the client and fail
			// every in-flight waiter — ourselves included, via the broadcast.
			// A stale pumper whose conn was already replaced by Resume must
			// not poison the fresh transport. Taking mu here cannot deadlock
			// against a sender blocked in SendRequest: the transport just
			// errored, so that send fails (or times out) and releases mu.
			c.mu.Lock()
			if conn == c.conn {
				c.failLocked(err)
			} else {
				c.waitMu.Lock()
				w, ok := c.waiters[req.Seq]
				if ok {
					delete(c.waiters, req.Seq)
				}
				c.waitMu.Unlock()
				if ok {
					c.notePendingLocked(w.req)
					w.ch <- callResult{err: err}
				}
			}
			c.mu.Unlock()
			c.recvMu.Unlock()
			continue
		}
		// Route under waitMu alone — never mu. A sender may be holding mu
		// across a blocked SendRequest right now, and on an unbuffered
		// transport the daemon only unblocks once this pump drains its reply.
		c.waitMu.Lock()
		w, ok := c.waiters[rep.Seq]
		if ok {
			delete(c.waiters, rep.Seq)
		}
		c.waitMu.Unlock()
		if !ok {
			// A reply no in-flight call asked for: the framing is
			// desynchronized and nothing later on this transport can be
			// trusted. Poison the client — which notes every in-flight
			// stamped launch as pending, so Resume replays them under their
			// original op IDs instead of silently losing their fates.
			c.mu.Lock()
			if conn == c.conn {
				c.failLocked(fmt.Errorf("client: reply for unknown request %d", rep.Seq))
			}
			c.mu.Unlock()
			c.recvMu.Unlock()
			continue
		}
		// Deliver before releasing recvMu: the owner's post-acquire re-check
		// then always observes it.
		w.ch <- callResult{rep: rep}
		c.recvMu.Unlock()
	}
}

// failLocked poisons the client with a sticky transport error and fails every
// in-flight waiter, noting each stamped launch as pending for Resume replay.
// Caller holds c.mu.
func (c *Client) failLocked(err error) {
	if c.broken == nil {
		c.broken = err
	}
	c.waitMu.Lock()
	drained := make([]*waiter, 0, len(c.waiters))
	for seq, w := range c.waiters {
		delete(c.waiters, seq)
		drained = append(drained, w)
	}
	c.waitMu.Unlock()
	for _, w := range drained {
		c.notePendingLocked(w.req)
		w.ch <- callResult{err: err}
	}
}

// finish maps a routed result to the call's return values.
func (c *Client) finish(req *ipc.Request, res callResult) (*ipc.Reply, error) {
	if res.err != nil {
		if isTimeout(res.err) {
			return nil, &opError{op: req.Op, msg: fmt.Sprintf("no reply within %v", c.timeout), kind: ErrTimeout}
		}
		return nil, &opError{op: req.Op, msg: res.err.Error(), kind: ErrDaemonDown}
	}
	if res.rep.Err != "" {
		return res.rep, &opError{op: req.Op, msg: res.rep.Err, kind: ipc.Sentinel(res.rep.Code)}
	}
	return res.rep, nil
}

// callLaunch issues a launch command through the backpressure policy: a
// rejected launch is retried with capped jittered backoff, and repeated
// exhausted retries open the circuit so later launches fail fast instead
// of hammering a saturated daemon.
func (c *Client) callLaunch(req *ipc.Request) (*ipc.Reply, error) {
	if c.bp == nil {
		return c.callStamped(req)
	}
	ticket, ok := c.bp.Admit()
	if !ok {
		return nil, &opError{op: req.Op, msg: "launch rejected locally", kind: ErrCircuitOpen}
	}
	rep, err := c.callStamped(req)
	for attempt := 1; attempt <= c.backoff.Attempts && errors.Is(err, ErrBackpressure); attempt++ {
		if serr := sleepCtx(c.ctx, c.launchWait(attempt)); serr != nil {
			// Canceled mid-backoff: surface the cancellation without judging
			// the daemon — and release the breaker's admit, or repeated
			// cancellations would leak half-open probe slots and wedge the
			// circuit permanently open.
			c.bp.Cancel(ticket)
			return rep, &opError{op: req.Op, msg: "canceled during backpressure backoff", kind: serr}
		}
		rep, err = c.callStamped(req)
	}
	c.bp.Settle(ticket, !errors.Is(err, ErrBackpressure))
	return rep, err
}

// notePendingLocked records the stamped launches of a request whose fate the
// transport failure left unknown — the daemon may or may not have accepted
// them. Resume re-sends each under its original op ID, and journal-backed
// dedup on the daemon turns the re-send into a fetch of the original outcome
// instead of a second execution. Requests that launch nothing (queries,
// memcpy, sync) are idempotent or harmless to drop and carry no items.
// Caller holds c.mu.
func (c *Client) notePendingLocked(req *ipc.Request) {
	for _, it := range req.Batch {
		if it.SrcRef != 0 {
			// Refs mean nothing outside their frame: the re-send carries the
			// text its item pointed at.
			it.Source, it.SrcRef = req.Batch[it.SrcRef-1].Source, 0
		}
		c.pending[it.OpID] = it
	}
}

// PendingOps returns every unsettled stamped op ID in ascending order —
// the set Resume replays (empty = none).
func (c *Client) PendingOps() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingIDsLocked()
}

// pendingIDsLocked snapshots the pending-op set in ascending ID order.
// Caller holds c.mu.
func (c *Client) pendingIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(c.pending))
	for op := range c.pending {
		ids = append(ids, op)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// isTimeout recognizes an expired read deadline however the transport
// reports it.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Malloc allocates a shared buffer, mirroring cudaMalloc.
func (c *Client) Malloc(size int64) (*Buffer, error) {
	rep, err := c.call(&ipc.Request{Op: ipc.OpMalloc, Size: size})
	if err != nil {
		return nil, err
	}
	buf := &Buffer{Handle: rep.Buf, DevPtr: rep.DevPtr, size: size}
	if c.reg != nil {
		data, err := c.reg.Get(rep.Buf)
		if err != nil {
			return nil, err
		}
		buf.Data = data
	}
	return buf, nil
}

// Free releases a buffer, mirroring cudaFree.
func (c *Client) Free(b *Buffer) error {
	_, err := c.call(&ipc.Request{Op: ipc.OpFree, Buf: b.Handle})
	b.Data = nil
	return err
}

// MemcpyH2D copies host bytes into a device buffer. In-process clients
// write the shared buffer directly and the command only validates the
// handle (the paper's zero-copy data channel); remote clients ship the
// bytes with the command.
func (c *Client) MemcpyH2D(b *Buffer, src []byte) error {
	if int64(len(src)) > b.size {
		return fmt.Errorf("client: H2D of %d bytes into %d-byte buffer", len(src), b.size)
	}
	if b.Data != nil {
		copy(b.Data, src)
		_, err := c.call(&ipc.Request{Op: ipc.OpMemcpyH2D, Buf: b.Handle})
		return err
	}
	_, err := c.call(&ipc.Request{Op: ipc.OpMemcpyH2D, Buf: b.Handle, Data: src})
	return err
}

// MemcpyD2H copies a device buffer back to host bytes.
func (c *Client) MemcpyD2H(dst []byte, b *Buffer) error {
	if b.Data != nil {
		copy(dst, b.Data)
		_, err := c.call(&ipc.Request{Op: ipc.OpMemcpyD2H, Buf: b.Handle})
		return err
	}
	rep, err := c.call(&ipc.Request{Op: ipc.OpMemcpyD2H, Buf: b.Handle, Size: int64(len(dst))})
	if err != nil {
		return err
	}
	copy(dst, rep.Data)
	return nil
}

// Launch submits an executable kernel spec on the default stream
// (in-process clients only). The launch is asynchronous, like
// cudaLaunchKernel; failures surface at Synchronize.
func (c *Client) Launch(spec *kern.Spec, taskSize int) error {
	return c.LaunchStream(spec, taskSize, 0)
}

// LaunchStream submits a kernel on a specific stream: launches on one
// stream execute in order; different streams run concurrently and may
// corun under the workload-aware executor.
func (c *Client) LaunchStream(spec *kern.Spec, taskSize, stream int) error {
	it, err := c.specItem(spec, taskSize, stream)
	if err != nil {
		return err
	}
	_, err = oneAck(c.submit([]ipc.BatchItem{it}))
	return err
}

// specItem validates an executable launch and deposits its spec in the shared
// table, tagged with the session so a vanished client's orphans are purged:
// the item that launches it.
func (c *Client) specItem(spec *kern.Spec, taskSize, stream int) (ipc.BatchItem, error) {
	if c.specs == nil {
		return ipc.BatchItem{}, fmt.Errorf("client: executable launches require an in-process daemon; use LaunchSource remotely")
	}
	if stream < 0 {
		return ipc.BatchItem{}, fmt.Errorf("client: invalid stream %d", stream)
	}
	if err := spec.Validate(); err != nil {
		return ipc.BatchItem{}, err
	}
	return ipc.BatchItem{Token: c.specs.PutOwned(spec, c.Session()), TaskSize: taskSize, Stream: stream}, nil
}

// sourceItem is the item that launches a source kernel.
func sourceItem(source, kernel string, grid, block kern.Dim3, taskSize, stream int) ipc.BatchItem {
	return ipc.BatchItem{
		Src: true, Source: source, Kernel: kernel, TaskSize: taskSize, Stream: stream,
		GridX: grid.X, GridY: grid.Y, BlockX: block.X, BlockY: block.Y,
	}
}

// submit sends items as one OpLaunchBatch frame through the backpressure
// policy and returns their acks in submission order. Op IDs are stamped
// inside the send critical section (wire order == ID order) and re-stamped on
// a retry (a rejected op was never accepted, so its old ID is dead). The spec
// of every item the daemon refused, alone or with its whole frame, leaves the
// shared table again, as do those of a frame that was never sent; after a
// transport failure under a sent frame they stay, for Resume's re-send.
func (c *Client) submit(items []ipc.BatchItem) ([]ipc.BatchAck, error) {
	rep, err := c.callLaunch(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: items})
	if err != nil {
		if refused(err) {
			for i := range items {
				c.takeBack(&items[i])
			}
		}
		return nil, err
	}
	for i, a := range rep.Acks {
		if a.Code != ipc.CodeOK && i < len(items) {
			c.takeBack(&items[i])
		}
	}
	return rep.Acks, nil
}

// takeBack removes the spec a refused item deposited from the shared table:
// nothing will launch it, and it would otherwise sit there until the session
// closes.
func (c *Client) takeBack(it *ipc.BatchItem) {
	if !it.Src {
		c.specs.Take(it.Token)
	}
}

// oneAck reads the outcome of a frame of one: a refusal of the frame or of
// its item comes back as the typed error.
func oneAck(acks []ipc.BatchAck, err error) (ipc.BatchAck, error) {
	switch {
	case err != nil:
		return ipc.BatchAck{}, err
	case len(acks) != 1:
		return ipc.BatchAck{}, &opError{op: ipc.OpLaunchBatch, msg: fmt.Sprintf("%d acks for a frame of one", len(acks))}
	case acks[0].Code != ipc.CodeOK:
		return acks[0], &opError{op: ipc.OpLaunchBatch, msg: acks[0].Err, kind: ipc.Sentinel(acks[0].Code)}
	}
	return acks[0], nil
}

// refused reports whether a launch error means the daemon will never take
// the spec the launch deposited, so the client takes it back: a reply
// carrying a non-OK code, the local breaker declining to send, or a call that
// was never sent because the transport was already broken. A transport
// failure under a sent launch is not one: the op is pending, its fate is
// unknown, and Resume re-sends it under the same token. So a deposit outlives
// a failed launch exactly while its op is in c.pending.
func refused(err error) bool {
	// Checked before errors.As, whose target escapes to the heap, so a
	// launch that succeeded allocates nothing here.
	if err == nil {
		return false
	}
	var oe *opError
	if errors.As(err, &oe) && oe.unsent {
		return true
	}
	return !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrDaemonDown)
}

// LaunchSource runs the injection + runtime-compilation pipeline on CUDA
// source and returns the compiled Slate entry points.
func (c *Client) LaunchSource(source, kernel string, grid, block kern.Dim3, taskSize int) ([]string, error) {
	entries, _, err := c.LaunchSourceDegraded(source, kernel, grid, block, taskSize)
	return entries, err
}

// LaunchSourceDegraded is LaunchSource plus the degradation flag: degraded
// is true when injection or compilation failed and the daemon fell back to
// launching the untransformed kernel through the vanilla hardware-scheduler
// path (the transparency contract) — the program ran, without Slate's
// scheduling benefits.
func (c *Client) LaunchSourceDegraded(source, kernel string, grid, block kern.Dim3, taskSize int) (entries []string, degraded bool, err error) {
	a, err := oneAck(c.submit([]ipc.BatchItem{sourceItem(source, kernel, grid, block, taskSize, 0)}))
	if err != nil {
		return nil, false, err
	}
	return a.Entries, a.Degraded, nil
}

// Synchronize blocks until every launched kernel completes, mirroring
// cudaDeviceSynchronize.
func (c *Client) Synchronize() error {
	_, err := c.call(&ipc.Request{Op: ipc.OpSynchronize, Stream: -1})
	return err
}

// SynchronizeStream blocks until the stream's launches complete, mirroring
// cudaStreamSynchronize.
func (c *Client) SynchronizeStream(stream int) error {
	if stream < 0 {
		return fmt.Errorf("client: invalid stream %d", stream)
	}
	_, err := c.call(&ipc.Request{Op: ipc.OpSynchronize, Stream: stream})
	return err
}

// Close ends the session.
func (c *Client) Close() error {
	_, callErr := c.call(&ipc.Request{Op: ipc.OpClose})
	closeErr := c.conn.Close()
	if callErr != nil {
		return callErr
	}
	return closeErr
}

// Resume reconnects after a transport failure or daemon restart and
// reattaches the session by its resume token. recovered reports which of
// the two restart outcomes happened:
//
//   - true: the daemon recovered this session from its journal. The session
//     keeps its ID, poison state, and dedup window, and a launch whose ack
//     was lost in flight is re-sent under its original op ID — the daemon
//     either returns the journaled outcome or executes it for the first
//     time, never twice.
//   - false: the daemon has no durable state for the token (or none at
//     all). The client gets a fresh session under the same process name and
//     the run continues degraded; if an op was in flight when the transport
//     died, its fate is unknown and the error wraps ErrSessionLost.
//
// Redials use rc's backoff and honor the WithContext context; a draining
// daemon refuses resumption with a typed ErrDraining error.
func (c *Client) Resume(dial func() (net.Conn, error), rc RetryConfig) (recovered bool, err error) {
	rc = rc.withDefaults()
	c.mu.Lock()
	token := c.token
	pendingIDs := c.pendingIDsLocked()
	pending := make([]ipc.BatchItem, 0, len(pendingIDs))
	for _, op := range pendingIDs {
		pending = append(pending, c.pending[op])
	}
	ctx := c.ctx
	old := c.conn
	// One Seq serves every handshake attempt: each runs alone on its own
	// fresh connection.
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	// The broken transport is dead either way. Closing it also unblocks any
	// stale pumper still parked in RecvReply on it; the conn identity check
	// keeps that pumper from poisoning the resumed client.
	old.Close()

	waits := retryWaits(rc, c.proc)
	var lastErr error
	for attempt := 0; attempt < rc.Attempts; attempt++ {
		if attempt > 0 {
			if serr := sleepCtx(ctx, waits[attempt-1]); serr != nil {
				return false, fmt.Errorf("client: resume canceled after %d attempts: %w", attempt, serr)
			}
		}
		nc, derr := dial()
		if derr != nil {
			lastErr = derr
			continue
		}
		// Run the resume handshake on the fresh transport BEFORE splicing it
		// into the client: until it succeeds, c.conn and the sticky broken
		// state stay untouched, so a concurrent caller keeps failing fast
		// with the original transport error instead of racing onto a
		// half-resumed (or already re-closed) connection. The timeout bounds
		// the handshake's send as well as its reply: a peer that accepts and
		// never reads must cost one timeout, not hang Resume.
		hc := ipc.NewConn(nc)
		req := &ipc.Request{Op: ipc.OpResume, Seq: seq, SessionToken: token, Proc: c.proc, Version: ipc.ProtocolVersion}
		rep, rerr := hc.RoundTrip(req, c.timeout)
		rep, rerr = c.finish(req, callResult{rep: rep, err: rerr})
		if rerr != nil {
			hc.Close()
			if errors.Is(rerr, ErrDraining) || errors.Is(rerr, ErrVersionSkew) {
				// The daemon is up and refusing (draining, or speaking a
				// different protocol version): do not redial into it.
				return false, rerr
			}
			lastErr = rerr
			continue
		}
		c.mu.Lock()
		c.conn = hc
		c.broken = nil
		c.sess = rep.Session
		c.token = rep.Token
		c.pending = map[uint64]ipc.BatchItem{}
		c.mu.Unlock()
		if !rep.Recovered {
			if len(pending) != 0 {
				return false, fmt.Errorf("client: resumed into a fresh session; op %d's outcome is unknown: %w", pending[0].OpID, ErrSessionLost)
			}
			return false, nil
		}
		// Re-send every pending op, in ascending op-ID order, under its
		// original ID: the daemon's dedup window answers with the journaled
		// outcome for any the daemon had accepted, and executes the rest for
		// the first time. ErrDuplicateOp means "accepted exactly once, reply
		// aged out" — the launch is safe, only its details are gone.
		for _, it := range pending {
			rep, perr := c.call(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: []ipc.BatchItem{it}})
			if perr == nil {
				_, perr = oneAck(rep.Acks, nil)
			}
			if perr != nil && !errors.Is(perr, ErrDuplicateOp) {
				return true, fmt.Errorf("client: resumed, but replaying op %d failed: %w", it.OpID, perr)
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("client: resume failed after %d attempts: %v: %w", rc.Attempts, lastErr, ErrDaemonDown)
}
