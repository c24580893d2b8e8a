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
	"slate/internal/journal"
	"slate/internal/kern"
	"slate/internal/nvrtc"
	"slate/internal/sched"
)

// Admission-control errors, mapped onto the wire as typed reply codes so
// clients recover them with errors.Is.
var (
	// ErrBackpressure rejects a launch because the session already has its
	// full quota of accepted-but-unfinished launches; back off and retry.
	ErrBackpressure = ipc.ErrBackpressure
	// ErrQuota rejects an allocation that would exceed the session's device
	// memory quota.
	ErrQuota = ipc.ErrQuota
	// ErrDraining rejects new work while the daemon shuts down gracefully.
	ErrDraining = ipc.ErrDraining
	// ErrVersionSkew rejects a Hello/Resume whose protocol version differs
	// from the daemon's: mixed-version fleets must refuse skew, not trade
	// frames the other side misreads.
	ErrVersionSkew = ipc.ErrVersionSkew
	// ErrExpired sheds a launch whose client-propagated deadline had
	// already passed — at admission or at the queue head. The launch did
	// not execute; nobody was waiting for it anyway.
	ErrExpired = ipc.ErrExpired
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

// newSpecTable returns an empty table.
func newSpecTable() *SpecTable {
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

// defaultMaxSessionPending is the per-session launch-queue bound NewServer
// installs: deep enough that well-behaved looped clients never see it,
// shallow enough that one flooding session cannot queue unbounded daemon
// work.
const defaultMaxSessionPending = 64

// NewServer builds a daemon with the given executor budget and default
// per-session admission bounds.
func NewServer(budget int) *Server {
	return &Server{
		Registry:          ipc.NewBufferRegistry(),
		Specs:             newSpecTable(),
		Exec:              NewExecutor(budget),
		Compiler:          nvrtc.New(),
		MaxSessionPending: defaultMaxSessionPending,
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
	// measure); bumped on the session goroutine, dropped by its lanes.
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
	if poisons(err) {
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

// fail marks a reply failed; refuse does the same for one item's ack.
func fail(rep *ipc.Reply, err error)      { rep.Code, rep.Err = ipc.CodeOf(err), err.Error() }
func refuse(ack *ipc.BatchAck, err error) { ack.Code, ack.Err = ipc.CodeOf(err), err.Error() }

// admit gates a frame's n fresh launches, all or none: on drain mode, on the
// frame's propagated deadline (already-expired work is shed before any quota
// is spent), on the session's pending-launch quota, and on the daemon-wide
// overload bound. That last one sheds a frame that would take the daemon as a
// whole past MaxTotalPending accepted-but-unfinished launches, regardless of
// per-session headroom — EXCEPT for a session the shed has been rejecting
// continuously for longer than AgingBound, whose frame is admitted over the
// cap. That override is the scheduler's aging bound (sched.DefaultAgingBound)
// extended daemon-wide: under a sustained overload burst every session
// still makes progress at least once per bound, so shedding can never
// starve anyone.
func (s *Server) admit(ss *session, n int, deadline int64) error {
	if s.Draining() {
		return ErrDraining
	}
	if expired(deadline) {
		return fmt.Errorf("%w: deadline passed before admission", ErrExpired)
	}
	if have := ss.pending.Load(); s.MaxSessionPending > 0 && have+int64(n) > int64(s.MaxSessionPending) {
		return fmt.Errorf("%w: %d pending + %d launching (max %d)", ErrBackpressure, have, n, s.MaxSessionPending)
	}
	if s.MaxTotalPending <= 0 {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	total := s.totalPending.Load()
	if total+int64(n) <= int64(s.MaxTotalPending) {
		ss.shedSince = time.Time{}
		return nil
	}
	bound := s.AgingBound
	if bound <= 0 {
		bound = time.Duration(sched.DefaultAgingBound)
	}
	if now := time.Now(); ss.shedSince.IsZero() {
		ss.shedSince = now
	} else if now.Sub(ss.shedSince) >= bound {
		// Aged past the bound: admit over the cap and restart the clock.
		ss.shedSince = time.Time{}
		return nil
	}
	return fmt.Errorf("%w: daemon overloaded (%d total pending + %d launching, max %d)",
		ErrBackpressure, total, n, s.MaxTotalPending)
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

	// disp holds the session's accepted launches, one lane per CUDA stream.
	disp := newDispatcher(s, ss)
	defer func() {
		disp.wait(-1)              // in-flight launches drain and journal their completions
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
				s.durable.mu.Unlock()
				// The loss is surfaced once, at the next Synchronize; that it
				// was is journaled before the reply, so no restart surfaces it
				// again.
				if lost != "" && s.journalAppend([]*journal.Record{{
					Kind: journal.KindStrike, Sess: st.Sess, Action: strikeLostSurfaced,
				}}) != nil {
					return // journal died pre-reply
				}
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
		case ipc.OpLaunch, ipc.OpLaunchSource:
			// A single launch is a frame of one; an unstamped one (OpID 0)
			// runs with no dedup identity and no journal record.
			items := [1]ipc.BatchItem{{
				Src: req.Op == ipc.OpLaunchSource, Token: req.Token,
				TaskSize: req.TaskSize, Stream: req.Stream, OpID: req.OpID,
				Source: req.Source, Kernel: req.Kernel,
				GridX: req.GridX, GridY: req.GridY, BlockX: req.BlockX, BlockY: req.BlockY,
			}}
			acks := [1]ipc.BatchAck{{OpID: req.OpID}}
			died, refusal := s.launchFrame(disp, items[:], acks[:], req.Deadline)
			if died {
				return // journal died pre-ack: the accept never happened
			}
			if refusal != nil {
				fail(rep, refusal)
				break
			}
			a := &acks[0]
			rep.Code, rep.Err, rep.Degraded, rep.Entries, rep.Dup = a.Code, a.Err, a.Degraded, a.Entries, a.Dup
		case ipc.OpLaunchBatch:
			// What only a received frame can get wrong is checked here: it is
			// empty, a source ref is bad or its op IDs do not ascend (the
			// whole frame is refused before anything else looks at it), or an
			// item is unstamped (refused in its own ack; the rest of the frame
			// goes on).
			if len(req.Batch) == 0 {
				fail(rep, fmt.Errorf("daemon: empty launch batch"))
				break
			}
			err := ipc.ResolveSrcRefs(req.Batch)
			if err == nil {
				err = ipc.CheckOpOrder(req.Batch)
			}
			if err != nil {
				fail(rep, fmt.Errorf("daemon: launch batch refused: %w", err))
				break
			}
			acks := make([]ipc.BatchAck, len(req.Batch))
			for i := range req.Batch {
				if acks[i].OpID = req.Batch[i].OpID; acks[i].OpID == 0 {
					acks[i].Code = ipc.CodeGeneric
					acks[i].Err = "daemon: batched launches must carry op IDs"
				}
			}
			died, refusal := s.launchFrame(disp, req.Batch, acks, req.Deadline)
			if died {
				return // journal died pre-ack: no item of the batch was acked
			}
			if refusal != nil {
				fail(rep, refusal)
				break
			}
			rep.Acks = acks
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
			// cudaStreamSynchronize, or cudaDeviceSynchronize for stream -1.
			disp.wait(req.Stream)
			if err := ss.takeLaunch(); err != nil {
				fail(rep, err)
			}
		case ipc.OpClose:
			disp.wait(-1)
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
	if sentinel := ipc.Sentinel(ipc.ErrCode(code)); sentinel != nil {
		return fmt.Errorf("%w (recovered): %s", sentinel, msg)
	}
	return errors.New(msg)
}

// prepare resolves one admitted item to the spec the executor will run and
// fills in the accept-time half of its ack; nil means the item was refused in
// its ack instead (a definite rejection, never journaled). A spec item takes
// its deposited spec. A source item goes through the injection +
// runtime-compilation pipeline, which is the compiler's source-keyed cache:
// the first launch of a translation unit under a task size injects and
// compiles it, every later one is a lookup. When injection or compilation
// fails for a source whose requested kernel is otherwise valid CUDA, the
// launch degrades to the untransformed vanilla hardware-scheduler path
// instead of failing — the paper's transparency contract — and the downgrade
// is recorded in the executor's decision log. Failures are never cached, so a
// transient one degrades that launch only.
func (s *Server) prepare(it *ipc.BatchItem, ack *ipc.BatchAck) *kern.Spec {
	if !it.Src {
		spec, ok := s.Specs.Take(it.Token)
		if !ok {
			refuse(ack, fmt.Errorf("daemon: unknown kernel token %d", it.Token))
		}
		return spec
	}
	img, pipeErr := s.Compiler.CompileSource(it.Source, inject.Options{TaskSize: it.TaskSize, EmitDispatcher: true})
	var entries []string
	if pipeErr == nil {
		if !img.HasEntry("slate_" + it.Kernel) {
			refuse(ack, fmt.Errorf("daemon: kernel %q not found after injection", it.Kernel))
			return nil
		}
		entries = img.Entries
	} else {
		// Degradation is only for kernels that would have run without
		// Slate: the original source must itself define the kernel.
		if !sourceHasKernel(it.Source, it.Kernel) {
			refuse(ack, pipeErr)
			return nil
		}
		entries = []string{it.Kernel}
		s.Exec.NoteFallback("src:"+it.Kernel, pipeErr.Error())
	}
	// Execute through the scheduler with a synthesized work model (this
	// host cannot run CUDA device code; the placeholder body preserves the
	// scheduling path so remote clients get end-to-end launch/synchronize
	// semantics).
	spec := synthesizeSourceSpec(it.Kernel, it.GridX, it.GridY, it.BlockX, it.BlockY)
	if spec == nil {
		refuse(ack, fmt.Errorf("daemon: launchSource %q: invalid geometry grid=(%d,%d) block=(%d,%d)",
			it.Kernel, it.GridX, it.GridY, it.BlockX, it.BlockY))
		return nil
	}
	ack.Degraded, ack.Entries = pipeErr != nil, entries
	return spec
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
// the geometry is not runnable.
func synthesizeSourceSpec(kernel string, gx, gy, bx, by int) *kern.Spec {
	if gx < 1 || gy < 1 || bx < 1 || by < 1 || bx*by > 1024 {
		return nil
	}
	spec := &kern.Spec{
		Name:            "src:" + kernel,
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

// launchFrame is the daemon's one launch path. OpLaunchBatch hands it the
// frame it received, OpLaunch and OpLaunchSource a frame of one. acks arrives
// with every item's OpID filled in; an item the caller's own validation
// already refused (Code set) is left alone. Order matters:
//
//  1. dedup first — replayed items are answered from the window and consume
//     no admission quota; a frame with no fresh item is answered entirely
//     from the window, whatever state the session is in;
//  2. a poisoned session takes no fresh work: the frame is refused with the
//     sticky error;
//  3. admission on the fresh count, whole-frame — a frame either fits under
//     both caps entirely or is refused entirely (a typed refusal, so the
//     client's retry loop re-stamps and re-sends);
//  4. prepare per item — a failed prepare is a definite per-item rejection,
//     answered in the item's ack and never journaled;
//  5. one accept commit for every accepted item, write-ahead of the ack;
//  6. the accepted items are pushed onto their streams' lanes, as one frame.
//
// died means the journal died mid-commit: the caller must vanish without
// acking (crash semantics — either a torn prefix that replay truncates, or a
// fully durable group the dedup window answers on re-send). A non-nil refusal
// means nothing was accepted and the caller fails the whole reply with it.
func (s *Server) launchFrame(disp *dispatcher, items []ipc.BatchItem, acks []ipc.BatchAck, deadline int64) (died bool, refusal error) {
	ss := disp.ss
	st := ss.resume
	fresh := disp.fresh[:0]
	for i := range items {
		if acks[i].Code == 0 && !s.dedup(st, items[i].OpID, &acks[i]) {
			fresh = append(fresh, i)
		}
	}
	disp.fresh = fresh
	if len(fresh) == 0 {
		return false, nil
	}
	if err := ss.stickyErr(); err != nil {
		return false, err
	}
	if err := s.admit(ss, len(fresh), deadline); err != nil {
		return false, err
	}
	// accepted compacts fresh in place; ready[k] is what runs for accepted[k].
	accepted, ready := fresh[:0], disp.ready[:0]
	for _, i := range fresh {
		if spec := s.prepare(&items[i], &acks[i]); spec != nil {
			accepted = append(accepted, i)
			ready = append(ready, dispatchItem{
				stream: items[i].Stream, spec: spec, task: items[i].TaskSize, vanilla: acks[i].Degraded,
				deadline: deadline, st: st, opID: items[i].OpID,
			})
		}
	}
	if err := s.acceptFrame(&disp.accepts, st, items, acks, accepted); err != nil {
		return true, nil
	}
	disp.push(ready)
	clear(ready) // the lanes own the specs now
	disp.ready = ready
	return false, nil
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
