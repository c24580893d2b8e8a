package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/inject"
	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/nvrtc"
	"slate/internal/sched"
)

// Admission-control errors, mapped onto the wire as typed reply codes so
// clients recover them with errors.Is.
var (
	// ErrBackpressure rejects a launch because the session already has its
	// full quota of accepted-but-unfinished launches; back off and retry.
	ErrBackpressure = errors.New("daemon: session launch queue full")
	// ErrQuota rejects an allocation that would exceed the session's device
	// memory quota.
	ErrQuota = errors.New("daemon: session quota exceeded")
	// ErrDraining rejects new work while the daemon shuts down gracefully.
	ErrDraining = errors.New("daemon: draining, not accepting new work")
	// ErrVersionSkew rejects a Hello/Resume whose protocol version differs
	// from the daemon's: mixed-version fleets must refuse skew, not trade
	// frames the other side misreads.
	ErrVersionSkew = errors.New("daemon: protocol version skew")
	// ErrExpired sheds a launch whose client-propagated deadline had
	// already passed — at admission or at the queue head. The launch did
	// not execute; nobody was waiting for it anyway.
	ErrExpired = errors.New("daemon: deadline expired before execution")
)

// expired reports whether a propagated per-op deadline (Unix nanoseconds,
// 0 = none) has already passed.
func expired(deadline int64) bool {
	return deadline != 0 && time.Now().UnixNano() > deadline
}

// SpecTable exchanges executable kernel specs between in-process clients
// and the daemon: closures cannot cross the wire, so the client deposits
// the spec here and sends only its token (the launch command stays small,
// like the paper's named-pipe commands). Entries carry the depositing
// session's ID so a crashed client's orphaned specs can be purged.
type SpecTable struct {
	mu    sync.Mutex
	next  uint64
	specs map[uint64]specEntry
}

type specEntry struct {
	spec  *kern.Spec
	owner uint64
}

// NewSpecTable returns an empty table.
func NewSpecTable() *SpecTable {
	return &SpecTable{next: 1, specs: map[uint64]specEntry{}}
}

// Put deposits an unowned spec and returns its token.
func (t *SpecTable) Put(s *kern.Spec) uint64 { return t.PutOwned(s, 0) }

// PutOwned deposits a spec tagged with the owning session ID (0 = unowned)
// and returns its token.
func (t *SpecTable) PutOwned(s *kern.Spec, owner uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	tok := t.next
	t.next++
	t.specs[tok] = specEntry{spec: s, owner: owner}
	return tok
}

// Take removes and returns the spec for a token.
func (t *SpecTable) Take(tok uint64) (*kern.Spec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.specs[tok]
	if ok {
		delete(t.specs, tok)
	}
	return e.spec, ok
}

// PurgeOwner drops every spec a session deposited but never launched —
// the orphan reclaim on abnormal disconnect — and reports how many.
func (t *SpecTable) PurgeOwner(owner uint64) int {
	if owner == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for tok, e := range t.specs {
		if e.owner == owner {
			delete(t.specs, tok)
			n++
		}
	}
	return n
}

// Len returns the number of deposited, not-yet-launched specs.
func (t *SpecTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.specs)
}

// maxStreamTails bounds the per-session stream-ordering map: beyond it,
// tails whose launches already drained are pruned, so a client cycling
// through stream IDs cannot grow daemon memory without bound.
const maxStreamTails = 64

// Server is the Slate daemon: it accepts client sessions, proxies the CUDA
// API (§IV-A), funnels every client's kernels into the shared executor
// (context funneling), and runs the injection/compilation pipeline for
// source kernels.
type Server struct {
	Registry *ipc.BufferRegistry
	Specs    *SpecTable
	Exec     *Executor
	Compiler *nvrtc.Compiler

	// MaxSessionPending bounds each session's accepted-but-unfinished
	// launches; beyond it OpLaunch/OpLaunchSource fail with
	// ErrBackpressure (0 = unbounded).
	MaxSessionPending int
	// MaxSessionBytes bounds each session's live device memory; an OpMalloc
	// that would exceed it fails with ErrQuota (0 = unbounded).
	MaxSessionBytes int64
	// TokenSeed perturbs resume-token minting so two fleet members never
	// mint the same token for the same session ID; 0 keeps the standalone
	// daemon's historical token stream exactly. Set before EnableDurability.
	TokenSeed uint64
	// ProtocolVersion is the wire version this daemon speaks; 0 means
	// ipc.ProtocolVersion (the build's own). Hello/Resume requests carrying
	// a different non-zero version are refused with CodeVersionSkew, so a
	// mixed-version fleet fails handshakes loudly instead of corrupting
	// session state. Set before serving.
	ProtocolVersion uint32
	// MaxTotalPending bounds the daemon's accepted-but-unfinished launches
	// ACROSS all sessions (0 = unbounded): beyond it new launches are shed
	// with ErrBackpressure regardless of per-session headroom — overload
	// load-shedding for fleets packing many lightweight sessions onto one
	// member. A session shed continuously for longer than AgingBound is
	// granted an admission override, so shedding can never starve an aged
	// session (the scheduler's aging invariant, extended daemon-wide).
	MaxTotalPending int
	// AgingBound is the overload-shed starvation bound; 0 selects the
	// scheduler's default aging bound so the daemon-wide invariant matches
	// the per-queue one.
	AgingBound time.Duration

	mu       sync.Mutex
	sessions int
	nextSess uint64
	draining bool
	conns    map[net.Conn]struct{}

	// totalPending counts accepted-but-unfinished launches daemon-wide (the
	// overload-shed measure); pingSeq monotonically stamps ping load reports
	// so hedged probe conns delivering replies out of order cannot feed a
	// router stale loads.
	totalPending atomic.Int64
	pingSeq      atomic.Uint64

	// durable is the crash-safe state layer (EnableDurability); nil keeps
	// the daemon volatile, exactly as before.
	durable *durableState
	// crashed latches after an injected crash site fires: the simulated
	// process is dead.
	crashed atomic.Bool
}

// DefaultMaxSessionPending is the per-session launch-queue bound NewServer
// installs: deep enough that well-behaved looped clients never see it,
// shallow enough that one flooding session cannot queue unbounded daemon
// work.
const DefaultMaxSessionPending = 64

// NewServer builds a daemon with the given executor budget and default
// per-session admission bounds.
func NewServer(budget int) *Server {
	return &Server{
		Registry:          ipc.NewBufferRegistry(),
		Specs:             NewSpecTable(),
		Exec:              NewExecutor(budget),
		Compiler:          nvrtc.New(),
		MaxSessionPending: DefaultMaxSessionPending,
		conns:             map[net.Conn]struct{}{},
	}
}

// Sessions returns the live session count.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// Draining reports whether the daemon is in drain mode.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain puts the daemon into graceful shutdown: new sessions and new work
// are rejected with ErrDraining while in-flight streams finish and
// sessions tear down. It returns nil once every session has closed —
// leaving the buffer registry and spec table empty — and force-closes
// stragglers still connected after timeout (their teardown still reclaims
// session resources; only a second timeout after the forced close is an
// error).
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	wait := func(d time.Duration) bool {
		dead := time.Now().Add(d)
		for time.Now().Before(dead) {
			if s.Sessions() == 0 {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return s.Sessions() == 0
	}
	if wait(timeout) {
		return nil
	}
	// Clients that never said goodbye: close their transports so teardown
	// runs. In-flight launches still drain through pending.Wait.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if wait(timeout) {
		return nil
	}
	return fmt.Errorf("daemon: %d sessions still alive after forced close", s.Sessions())
}

// Serve accepts connections until the listener closes. Each session runs
// on its own goroutine, alive until the client closes — the paper's
// session-per-process design (§IV-A2).
func (s *Server) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(c)
	}
}

// session is the per-connection state ServeConn tracks so teardown can
// return the daemon to a clean slate however the client leaves.
type session struct {
	id    uint64
	owned map[uint64]int64 // buffer handle → size, reclaimed if the client vanishes
	bytes int64            // live session-owned device memory (quota accounting)
	// resume is the session's durable identity (nil on a volatile daemon):
	// the dedup window, poison marks, and resume token that survive a
	// restart.
	resume *resumeState
	// pending counts accepted-but-unfinished launches (the backpressure
	// measure); bumped on the session goroutine, dropped by launch workers.
	pending atomic.Int64

	mu     sync.Mutex
	launch error // first failed launch, reported at Synchronize/Close
	sticky bool  // a kernel panicked or timed out: the error poisons the session
	// shedSince marks when the daemon-wide overload shed first rejected
	// this session (zero = not being shed); once the wait exceeds
	// AgingBound the session is admitted over the cap.
	shedSince time.Time
}

// recordLaunch notes an asynchronous launch failure. Kernel panics and
// containment timeouts are sticky (CUDA sticky-context semantics): the
// session stays poisoned and rejects further launches.
func (ss *session) recordLaunch(err error) {
	ss.mu.Lock()
	if ss.launch == nil {
		ss.launch = err
	}
	if errors.Is(err, ErrKernelPanic) || errors.Is(err, ErrKernelTimeout) {
		ss.sticky = true
	}
	ss.mu.Unlock()
}

// stickyErr returns the poisoning error, if any.
func (ss *session) stickyErr() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.sticky {
		return ss.launch
	}
	return nil
}

// takeLaunch reports the pending launch error; non-sticky errors clear on
// report (like cudaGetLastError), sticky ones persist.
func (ss *session) takeLaunch() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	err := ss.launch
	if !ss.sticky {
		ss.launch = nil
	}
	return err
}

// checkVersion enforces the protocol-version handshake on a Hello/Resume.
// A zero request version is a legacy (pre-versioning) client and accepted;
// anything else must match the daemon's effective version exactly.
func (s *Server) checkVersion(reqVersion uint32) error {
	have := s.ProtocolVersion
	if have == 0 {
		have = ipc.ProtocolVersion
	}
	if reqVersion != 0 && reqVersion != have {
		return fmt.Errorf("%w: client speaks v%d, daemon speaks v%d", ErrVersionSkew, reqVersion, have)
	}
	return nil
}

// fail marks a reply failed, classifying the error so clients recover
// typed sentinels.
func fail(rep *ipc.Reply, err error) {
	rep.Err = err.Error()
	switch {
	case errors.Is(err, ipc.ErrDeviceOOM):
		rep.Code = ipc.CodeOOM
	case errors.Is(err, ErrKernelPanic):
		rep.Code = ipc.CodeKernelPanic
	case errors.Is(err, ErrKernelTimeout):
		rep.Code = ipc.CodeKernelTimeout
	case errors.Is(err, ErrBackpressure):
		rep.Code = ipc.CodeBackpressure
	case errors.Is(err, ErrQuota):
		rep.Code = ipc.CodeQuota
	case errors.Is(err, ErrDraining):
		rep.Code = ipc.CodeDraining
	case errors.Is(err, ErrVersionSkew):
		rep.Code = ipc.CodeVersionSkew
	case errors.Is(err, ErrExpired):
		rep.Code = ipc.CodeExpired
	case errors.Is(err, ipc.ErrMalformed):
		rep.Code = ipc.CodeMalformed
	default:
		rep.Code = ipc.CodeGeneric
	}
}

// admitTotal applies the daemon-wide overload bound: once the daemon as a
// whole holds MaxTotalPending accepted-but-unfinished launches, new
// launches are shed with ErrBackpressure regardless of per-session
// headroom — EXCEPT for a session the shed has been rejecting continuously
// for longer than AgingBound, which is granted one admission over the cap.
// That override is the scheduler's aging bound (sched.DefaultAgingBound)
// extended daemon-wide: under a sustained overload burst every session
// still makes progress at least once per bound, so shedding can never
// starve anyone.
func (s *Server) admitTotal(ss *session) error {
	if s.MaxTotalPending <= 0 {
		return nil
	}
	if s.totalPending.Load() < int64(s.MaxTotalPending) {
		ss.mu.Lock()
		ss.shedSince = time.Time{}
		ss.mu.Unlock()
		return nil
	}
	bound := s.AgingBound
	if bound <= 0 {
		bound = time.Duration(sched.DefaultAgingBound)
	}
	now := time.Now()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.shedSince.IsZero() {
		ss.shedSince = now
	} else if now.Sub(ss.shedSince) >= bound {
		// Aged past the bound: admit over the cap and restart the clock.
		ss.shedSince = time.Time{}
		return nil
	}
	return fmt.Errorf("%w: daemon overloaded (%d total pending, max %d)",
		ErrBackpressure, s.totalPending.Load(), s.MaxTotalPending)
}

// ServeConn runs one client session to completion. Whatever way the session
// ends — clean OpClose, abrupt disconnect, garbage on the wire — teardown
// drains in-flight launches and reclaims every session-owned resource:
// shared buffers and orphaned spec-table entries.
func (s *Server) ServeConn(nc net.Conn) {
	if s.crashed.Load() {
		_ = nc.Close() // the simulated process is dead
		return
	}
	conn := ipc.NewConn(nc)
	defer conn.Close()
	s.mu.Lock()
	s.sessions++
	s.nextSess++
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[nc] = struct{}{}
	ss := &session{id: s.nextSess, owned: map[uint64]int64{}}
	s.mu.Unlock()

	var pending sync.WaitGroup
	// disp is the session's batched-dispatch loop, started lazily on the
	// first OpLaunchBatch; nil for sessions that never batch.
	var disp *dispatcher
	defer func() {
		if disp != nil {
			disp.close() // drain the ring, group-commit buffered completions
		}
		pending.Wait()
		s.detachSession(ss.resume) // a vanished client may resume later
		for h := range ss.owned {
			_ = s.Registry.Release(h)
		}
		s.Specs.PurgeOwner(ss.id)
		s.mu.Lock()
		s.sessions--
		delete(s.conns, nc)
		s.mu.Unlock()
	}()

	// Stream ordering (§III, "a queue for each process and CUDA stream"):
	// launches on one stream chain behind each other; different streams run
	// concurrently and meet the executor's corun logic independently. The
	// tracker bounds its map by pruning retired streams LRU-first.
	streams := newStreamTracker(maxStreamTails)
	// enqueue chains a launch behind the stream's tail and runs it through
	// the given execution path, holding one unit of the session's pending
	// quota until the launch finishes.
	enqueue := func(stream int, run func() error) {
		prev, next := streams.push(stream)
		ss.pending.Add(1)
		s.totalPending.Add(1)
		pending.Add(1)
		go func() {
			defer pending.Done()
			defer s.totalPending.Add(-1)
			defer ss.pending.Add(-1)
			defer close(next)
			<-prev // in-order within the stream
			if err := run(); err != nil {
				ss.recordLaunch(err)
			}
		}()
	}
	// admitLaunch gates new launches on drain mode, the propagated per-op
	// deadline (already-expired work is shed before any quota is spent),
	// the session's pending-launch quota, and the daemon-wide overload
	// bound.
	admitLaunch := func(deadline int64) error {
		if s.Draining() {
			return ErrDraining
		}
		if expired(deadline) {
			return fmt.Errorf("%w: deadline passed before admission", ErrExpired)
		}
		if n := ss.pending.Load(); s.MaxSessionPending > 0 && n >= int64(s.MaxSessionPending) {
			return fmt.Errorf("%w: %d launches pending (max %d)", ErrBackpressure, n, s.MaxSessionPending)
		}
		return s.admitTotal(ss)
	}

	for {
		req, err := conn.RecvRequest()
		if err != nil {
			// EOF is a vanished client; anything else is a torn or garbage
			// frame. Either way the deferred teardown reclaims the session.
			_ = err
			return
		}
		rep := &ipc.Reply{Seq: req.Seq}
		switch req.Op {
		case ipc.OpHello:
			// Session established; hand the client its session ID so its
			// spec deposits carry an owner tag. A version-skewed client is
			// refused before any state is touched; a draining daemon admits
			// no new sessions.
			if err := s.checkVersion(req.Version); err != nil {
				fail(rep, err)
				_ = conn.SendReply(rep)
				return
			}
			if s.Draining() {
				// A refused session must not linger holding the conn open —
				// drain's polite phase waits on the session count.
				fail(rep, ErrDraining)
				_ = conn.SendReply(rep)
				return
			}
			st, err := s.openSession(ss, req.Proc)
			if err != nil {
				return // journal died pre-ack: the session never existed
			}
			ss.resume = st
			rep.Session = ss.id
			if st != nil {
				rep.Token = st.Token
			}
		case ipc.OpResume:
			// A client reconnecting after a restart or transport loss. The
			// drain race resolves cleanly: a typed refusal, never a hang —
			// and, like a refused hello, the conn must not linger. Version
			// skew is refused the same way.
			if err := s.checkVersion(req.Version); err != nil {
				fail(rep, err)
				_ = conn.SendReply(rep)
				return
			}
			if s.Draining() {
				fail(rep, ErrDraining)
				_ = conn.SendReply(rep)
				return
			}
			if ss.resume != nil {
				fail(rep, fmt.Errorf("daemon: session already established"))
				break
			}
			if st, ok := s.resumeSession(req.SessionToken); ok {
				ss.id = st.Sess
				ss.resume = st
				s.durable.mu.Lock()
				poisonErr, poisonCode, lost := st.PoisonErr, st.PoisonCode, st.LostErr
				st.LostErr = "" // surfaced once, at the next Synchronize
				s.durable.mu.Unlock()
				ss.mu.Lock()
				if poisonErr != "" {
					ss.launch = errFromCode(poisonCode, poisonErr)
					ss.sticky = true
				} else if lost != "" {
					ss.launch = errors.New(lost)
				}
				ss.mu.Unlock()
				rep.Session, rep.Token, rep.Recovered = ss.id, st.Token, true
			} else {
				// Unknown (or still-attached) token: state lost. The client
				// gets a fresh session and is told to run degraded.
				st, err := s.openSession(ss, req.Proc)
				if err != nil {
					return
				}
				ss.resume = st
				rep.Session = ss.id
				if st != nil {
					rep.Token = st.Token
				}
			}
		case ipc.OpMalloc:
			if s.Draining() {
				fail(rep, ErrDraining)
				break
			}
			if s.MaxSessionBytes > 0 && ss.bytes+req.Size > s.MaxSessionBytes {
				fail(rep, fmt.Errorf("%w: %d bytes requested, %d of %d in use",
					ErrQuota, req.Size, ss.bytes, s.MaxSessionBytes))
				break
			}
			h, dev, err := s.Registry.Create(req.Size)
			if err != nil {
				fail(rep, err)
			} else {
				rep.Buf, rep.DevPtr = h, dev
				ss.owned[h] = req.Size
				ss.bytes += req.Size
			}
		case ipc.OpFree:
			if err := s.Registry.Release(req.Buf); err != nil {
				fail(rep, err)
			}
			if sz, ok := ss.owned[req.Buf]; ok {
				ss.bytes -= sz
			}
			delete(ss.owned, req.Buf)
		case ipc.OpMemcpyH2D:
			// In-process clients already wrote the shared buffer; remote
			// clients ship bytes on the command's data field.
			if len(req.Data) > 0 {
				dst, err := s.Registry.Get(req.Buf)
				switch {
				case err != nil:
					fail(rep, err)
				case len(req.Data) > len(dst):
					fail(rep, fmt.Errorf("daemon: H2D overflow: %d into %d", len(req.Data), len(dst)))
				default:
					copy(dst, req.Data)
				}
			} else if _, err := s.Registry.Get(req.Buf); err != nil {
				fail(rep, err)
			}
		case ipc.OpMemcpyD2H:
			src, err := s.Registry.Get(req.Buf)
			if err != nil {
				fail(rep, err)
			} else if req.Size > 0 { // remote readback
				n := req.Size
				if n > int64(len(src)) {
					n = int64(len(src))
				}
				rep.Data = append([]byte(nil), src[:n]...)
			}
		case ipc.OpLaunch:
			if s.dedupCheck(ss.resume, req, rep) {
				break // replayed op: original ack (or typed duplicate), no re-execution
			}
			if err := ss.stickyErr(); err != nil {
				fail(rep, err)
				break
			}
			if err := admitLaunch(req.Deadline); err != nil {
				fail(rep, err)
				break
			}
			spec, ok := s.Specs.Take(req.Token)
			if !ok {
				fail(rep, fmt.Errorf("daemon: unknown kernel token %d", req.Token))
				break
			}
			if err := s.acceptLaunch(ss.resume, req, rep, false); err != nil {
				return // journal died pre-ack: the accept never happened
			}
			task, opID, st, deadline := req.TaskSize, req.OpID, ss.resume, req.Deadline
			enqueue(req.Stream, func() error {
				var err error
				if expired(deadline) {
					// Queue-head shed: the client's deadline passed while the
					// launch waited its turn — spend nothing executing it.
					err = fmt.Errorf("%w: deadline passed at queue head", ErrExpired)
				} else {
					err = s.Exec.Run(spec, task)
				}
				s.completeLaunch(st, opID, err)
				return err
			})
		case ipc.OpLaunchSource:
			if s.dedupCheck(ss.resume, req, rep) {
				break
			}
			if err := ss.stickyErr(); err != nil {
				fail(rep, err)
				break
			}
			if err := admitLaunch(req.Deadline); err != nil {
				fail(rep, err)
				break
			}
			run := s.prepareSource(req, rep)
			if run == nil {
				break // rep already failed
			}
			if err := s.acceptLaunch(ss.resume, req, rep, true); err != nil {
				return
			}
			opID, st, deadline := req.OpID, ss.resume, req.Deadline
			enqueue(req.Stream, func() error {
				var err error
				if expired(deadline) {
					err = fmt.Errorf("%w: deadline passed at queue head", ErrExpired)
				} else {
					err = run()
				}
				s.completeLaunch(st, opID, err)
				return err
			})
		case ipc.OpLaunchBatch:
			if disp == nil {
				disp = newDispatcher(s, s.MaxSessionPending)
			}
			if s.handleLaunchBatch(ss, streams, &pending, disp, req, rep) {
				return // journal died pre-ack: no item of the batch was acked
			}
		case ipc.OpPing:
			// Fleet heartbeat: touches no session state, answers with the
			// daemon's load. The probing connection itself was counted on
			// arrival, so subtract it — placement wants real sessions only.
			// A draining daemon still answers (with the typed refusal) so a
			// monitor can tell "draining" from "dead". The load carries a
			// monotonic sequence: hedged probe conns can deliver replies out
			// of order, and the router must never let a stale reading
			// overwrite a fresher one.
			rep.Load = int64(s.Sessions()) - 1
			rep.LoadSeq = s.pingSeq.Add(1)
			if s.Draining() {
				fail(rep, ErrDraining)
			}
		case ipc.OpSynchronize:
			if req.Stream >= 0 {
				<-streams.tailOf(req.Stream) // cudaStreamSynchronize
			} else {
				pending.Wait() // cudaDeviceSynchronize
			}
			if err := ss.takeLaunch(); err != nil {
				fail(rep, err)
			}
		case ipc.OpClose:
			pending.Wait()
			// Surface a pending async launch failure to clients that exit
			// without a final Synchronize.
			if err := ss.takeLaunch(); err != nil {
				fail(rep, err)
			}
			s.closeSession(ss.resume) // a clean goodbye ends resumability
			ss.resume = nil
			_ = conn.SendReply(rep)
			return // deferred teardown reclaims buffers and specs
		default:
			fail(rep, fmt.Errorf("daemon: unknown op %v", req.Op))
		}
		if err := conn.SendReply(rep); err != nil {
			return
		}
	}
}

// errFromCode rebuilds a typed daemon error from its journaled wire code,
// so a resumed session's restored poison still satisfies errors.Is.
func errFromCode(code uint8, msg string) error {
	switch ipc.ErrCode(code) {
	case ipc.CodeKernelPanic:
		return fmt.Errorf("%w (recovered): %s", ErrKernelPanic, msg)
	case ipc.CodeKernelTimeout:
		return fmt.Errorf("%w (recovered): %s", ErrKernelTimeout, msg)
	default:
		return errors.New(msg)
	}
}

// prepareSource runs the injection + runtime-compilation pipeline for one
// OpLaunchSource and returns the execution thunk the caller schedules (nil
// when rep was failed instead). The pipeline is the compiler's source-keyed
// cache: the first launch of a translation unit under a task size injects
// and compiles it, every later one is a lookup. When injection or
// compilation fails for a source whose requested kernel is otherwise valid
// CUDA, the launch degrades to the untransformed vanilla hardware-scheduler
// path instead of failing — the paper's transparency contract — and the
// downgrade is recorded in the executor's decision log. Failures are never
// cached, so a transient one degrades that launch only.
func (s *Server) prepareSource(req *ipc.Request, rep *ipc.Reply) func() error {
	want := "slate_" + req.Kernel
	img, pipeErr := s.Compiler.CompileSource(req.Source, inject.Options{TaskSize: req.TaskSize, EmitDispatcher: true})
	if pipeErr == nil {
		if !img.HasEntry(want) {
			fail(rep, fmt.Errorf("daemon: kernel %q not found after injection", req.Kernel))
			return nil
		}
		rep.Entries = img.Entries
	} else {
		// Degradation is only for kernels that would have run without
		// Slate: the original source must itself define the kernel.
		if !sourceHasKernel(req.Source, req.Kernel) {
			fail(rep, pipeErr)
			return nil
		}
		rep.Degraded = true
		rep.Entries = []string{req.Kernel}
		s.Exec.NoteFallback("src:"+req.Kernel, pipeErr.Error())
	}
	// Execute through the scheduler with a synthesized work model (this
	// host cannot run CUDA device code; the placeholder body preserves the
	// scheduling path so remote clients get end-to-end launch/synchronize
	// semantics).
	spec := synthesizeSourceSpec(req)
	if spec == nil {
		fail(rep, fmt.Errorf("daemon: launchSource %q: invalid geometry grid=(%d,%d) block=(%d,%d)",
			req.Kernel, req.GridX, req.GridY, req.BlockX, req.BlockY))
		return nil
	}
	task := req.TaskSize
	if rep.Degraded {
		return func() error { return s.Exec.RunVanilla(spec, task) }
	}
	return func() error { return s.Exec.Run(spec, task) }
}

// sourceHasKernel reports whether the raw, untransformed source defines the
// requested __global__ kernel — the precondition for vanilla fallback.
func sourceHasKernel(source, kernel string) bool {
	kernels, err := inject.FindKernels(source)
	if err != nil {
		return false
	}
	for _, k := range kernels {
		if k.Name == kernel {
			return true
		}
	}
	return false
}

// synthesizeSourceSpec builds an executable placeholder spec for a
// source-kernel launch: the declared geometry with a no-op body. Nil when
// the request carries no runnable geometry.
func synthesizeSourceSpec(req *ipc.Request) *kern.Spec {
	gx, gy := req.GridX, req.GridY
	bx, by := req.BlockX, req.BlockY
	if gx < 1 || gy < 1 || bx < 1 || by < 1 || bx*by > 1024 {
		return nil
	}
	spec := &kern.Spec{
		Name:            "src:" + req.Kernel,
		Grid:            kern.D2(gx, gy),
		BlockDim:        kern.D2(bx, by),
		FLOPsPerBlock:   float64(bx * by),
		InstrPerBlock:   float64(bx * by),
		L2BytesPerBlock: float64(bx * by * 8),
		ComputeEff:      0.1,
		Exec:            func(int) {},
	}
	if spec.Validate() != nil {
		return nil
	}
	return spec
}

// batchItemRequest synthesizes the single-launch request one batched item
// describes, so the prepare pipeline (prepareSource, spec synthesis) is
// shared verbatim between the two paths.
func batchItemRequest(it *ipc.BatchItem) *ipc.Request {
	r := &ipc.Request{TaskSize: it.TaskSize, Stream: it.Stream, OpID: it.OpID}
	if it.Src {
		r.Op = ipc.OpLaunchSource
		r.Source, r.Kernel = it.Source, it.Kernel
		r.GridX, r.GridY, r.BlockX, r.BlockY = it.GridX, it.GridY, it.BlockX, it.BlockY
	} else {
		r.Op = ipc.OpLaunch
		r.Token = it.Token
	}
	return r
}

// handleLaunchBatch serves one OpLaunchBatch: source refs resolved (a bad one
// refuses the whole frame before anything else looks at it), per-item dedup,
// whole-batch admission, per-item prepare, ONE group-commit journal append
// for every accepted item (write-ahead of the single batch ack), then
// hand-off to the session's persistent dispatch loop. Order matters:
//
//  1. dedup first — replayed items are answered from the window and consume
//     no admission quota;
//  2. admission on the fresh count, whole-batch — a batch either fits under
//     MaxSessionPending entirely or is refused entirely (a typed
//     ErrBackpressure at the reply level, so the client's retry loop treats
//     it exactly like a single launch's definite rejection and re-stamps);
//  3. prepare per item — a failed prepare is a definite per-item rejection,
//     acked in the item's BatchAck and never journaled, mirroring the single
//     path;
//  4. one acceptLaunchBatch group commit, then enqueue. The stream tails are
//     pushed here, on the session goroutine, because streamTracker is
//     confined to it by design.
//
// Returns true when the journal died mid-append: the caller must vanish
// without acking (crash semantics — either a torn prefix that replay
// truncates, or a fully durable batch the dedup window answers on re-send).
func (s *Server) handleLaunchBatch(ss *session, streams *streamTracker, wg *sync.WaitGroup, disp *dispatcher, req *ipc.Request, rep *ipc.Reply) bool {
	n := len(req.Batch)
	if n == 0 {
		fail(rep, fmt.Errorf("daemon: empty launch batch"))
		return false
	}
	if err := ipc.ResolveSrcRefs(req.Batch); err != nil {
		fail(rep, fmt.Errorf("daemon: launch batch refused: %w", err))
		return false
	}
	if err := ss.stickyErr(); err != nil {
		fail(rep, err)
		return false
	}
	acks := make([]ipc.BatchAck, n)
	fresh := make([]int, 0, n)
	for i := range req.Batch {
		it := &req.Batch[i]
		acks[i].OpID = it.OpID
		if it.OpID == 0 {
			acks[i].Code = ipc.CodeGeneric
			acks[i].Err = "daemon: batched launches must carry op IDs"
			continue
		}
		if s.dedupCheckItem(ss.resume, it.OpID, &acks[i]) {
			continue
		}
		fresh = append(fresh, i)
	}
	if len(fresh) > 0 {
		if s.Draining() {
			fail(rep, ErrDraining)
			return false
		}
		if expired(req.Deadline) {
			// The whole batch rode one frame under one deadline: shed it
			// entirely before any quota is spent.
			fail(rep, fmt.Errorf("%w: deadline passed before admission", ErrExpired))
			return false
		}
		if have := ss.pending.Load(); s.MaxSessionPending > 0 && have+int64(len(fresh)) > int64(s.MaxSessionPending) {
			fail(rep, fmt.Errorf("%w: %d pending + %d batched (max %d)",
				ErrBackpressure, have, len(fresh), s.MaxSessionPending))
			return false
		}
		if err := s.admitTotal(ss); err != nil {
			fail(rep, err)
			return false
		}
	}
	type preparedItem struct {
		idx int
		run func() error
	}
	accepted := make([]preparedItem, 0, len(fresh))
	acceptedIdx := make([]int, 0, len(fresh))
	for _, i := range fresh {
		it := &req.Batch[i]
		ireq := batchItemRequest(it)
		var run func() error
		if it.Src {
			irep := &ipc.Reply{}
			run = s.prepareSource(ireq, irep)
			if run == nil {
				acks[i].Code, acks[i].Err = irep.Code, irep.Err
				continue
			}
			acks[i].Degraded, acks[i].Entries = irep.Degraded, irep.Entries
		} else {
			spec, ok := s.Specs.Take(it.Token)
			if !ok {
				acks[i].Code = ipc.CodeGeneric
				acks[i].Err = fmt.Sprintf("daemon: unknown kernel token %d", it.Token)
				continue
			}
			task := it.TaskSize
			run = func() error { return s.Exec.Run(spec, task) }
		}
		accepted = append(accepted, preparedItem{idx: i, run: run})
		acceptedIdx = append(acceptedIdx, i)
	}
	if err := s.acceptLaunchBatch(ss.resume, req.Batch, acks, acceptedIdx); err != nil {
		return true
	}
	st := ss.resume
	for _, p := range accepted {
		it := &req.Batch[p.idx]
		prev, next := streams.push(it.Stream)
		ss.pending.Add(1)
		s.totalPending.Add(1)
		wg.Add(1)
		run := p.run
		if dl := req.Deadline; dl != 0 {
			inner := run
			run = func() error {
				if expired(dl) {
					// Queue-head shed inside the dispatch loop: the item's
					// completion is still journaled (with CodeExpired), it
					// just never executes.
					return fmt.Errorf("%w: deadline passed at queue head", ErrExpired)
				}
				return inner()
			}
		}
		disp.push(dispatchItem{prev: prev, next: next, run: run, opID: it.OpID, st: st, ss: ss, wg: wg})
	}
	rep.Acks = acks
	return false
}

// NewLocal builds an in-process daemon and returns it with a dial function
// producing connected client transports that share the daemon's buffer
// registry and spec table (the shared-memory data channel).
func NewLocal(budget int) (*Server, func() net.Conn) {
	s := NewServer(budget)
	dial := func() net.Conn {
		clientSide, serverSide := net.Pipe()
		go s.ServeConn(serverSide)
		return clientSide
	}
	return s, dial
}
