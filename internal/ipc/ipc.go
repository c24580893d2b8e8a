// Package ipc implements Slate's client-daemon transport (§IV-A1): a
// command channel carrying small, latency-sensitive API messages (the
// paper's named pipe), and a shared-buffer data channel for kernel IO that
// can range from bytes to gigabytes — kept out of the command path so bulk
// data is never copied through it.
//
// Commands are frames of a hand-written binary codec (wire.go) over any
// net.Conn; the buffer registry plays the role of the shared-memory segment:
// in-process clients get zero-copy views, remote clients copy through
// explicit transfer messages.
package ipc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrDeviceOOM is the typed cause of every device-memory allocation failure
// (cudaErrorMemoryAllocation); callers test it with errors.Is.
var ErrDeviceOOM = errors.New("ipc: out of device memory")

// errMalformed is the typed cause of refusing a frame that decoded but whose
// contents contradict each other (a batch item's SrcRef that does not name an
// earlier source-carrying item). Only a client that does not speak the
// protocol can cause it; retrying the same frame is pointless.
var errMalformed = errors.New("ipc: malformed request")

// ErrCode classifies a Reply's failure so clients can map wire errors back
// to typed sentinels without parsing strings.
type ErrCode uint8

// Reply error codes.
const (
	// CodeOK is the zero value: no error.
	CodeOK ErrCode = iota
	// CodeGeneric is an untyped failure; Reply.Err carries the detail.
	CodeGeneric
	// codeOOM is a device-memory allocation failure.
	codeOOM
	// codeKernelPanic is a panicking kernel body caught by the executor
	// (sticky, like a CUDA sticky context error).
	codeKernelPanic
	// CodeBackpressure rejects a launch because the session's pending queue
	// is full; the client should back off and retry.
	CodeBackpressure
	// codeQuota rejects a request because it would exceed a per-session
	// resource quota (in-flight launches or device memory).
	codeQuota
	// CodeDraining rejects new work because the daemon is shutting down
	// gracefully; retrying on this connection is pointless.
	CodeDraining
	// codeKernelTimeout is a launch abandoned by the executor's wall-clock
	// containment deadline (sticky, like a panic).
	codeKernelTimeout
	// CodeDuplicateOp marks a launch whose per-session op ID was already
	// accepted but whose original outcome is no longer in the bounded dedup
	// window; the launch was NOT re-executed (exactly-once semantics).
	// Replays whose outcome is still cached return the original reply with
	// Dup set instead of this code.
	CodeDuplicateOp
	// codeVersionSkew refuses a Hello/Resume whose protocol version does not
	// match the daemon's: mixed-version fleets must fail the handshake
	// loudly instead of exchanging frames the other side misreads. The
	// client should redial a member running its own version.
	codeVersionSkew
	// codeExpired sheds a launch whose propagated deadline had already
	// passed when the daemon was about to spend work on it — at admission,
	// or at the queue head just before execution. The launch did NOT run
	// (and never will); retrying it verbatim is pointless because the
	// client's own deadline has passed too.
	codeExpired
	// codeMalformed refuses a request whose fields are inconsistent
	// (errMalformed). Nothing was admitted, journaled or executed.
	codeMalformed

	numCodes // one past the last code: what the round-trip test walks up to
)

// The typed sentinels the wire codes stand for. They are defined here, beside
// the codes, so the one table below can pair them; the daemon and the client
// export them under their own names, where each is documented for its side.
var (
	ErrKernelPanic   = errors.New("daemon: kernel panicked")
	ErrBackpressure  = errors.New("daemon: session launch queue full")
	ErrQuota         = errors.New("daemon: session quota exceeded")
	ErrDraining      = errors.New("daemon: draining, not accepting new work")
	ErrKernelTimeout = errors.New("daemon: kernel exceeded wall-clock deadline")
	ErrDuplicateOp   = errors.New("op already accepted, outcome unavailable")
	ErrVersionSkew   = errors.New("daemon: protocol version skew")
	ErrExpired       = errors.New("daemon: deadline expired before execution")
)

// wireErrors pairs every typed code with its sentinel — the one table the
// daemon (error → code, journaled code → error) and the client (code →
// sentinel) all read. CodeOK and CodeGeneric stand for no sentinel.
var wireErrors = [...]struct {
	code ErrCode
	err  error
}{
	{codeOOM, ErrDeviceOOM},
	{codeKernelPanic, ErrKernelPanic},
	{codeKernelTimeout, ErrKernelTimeout},
	{CodeBackpressure, ErrBackpressure},
	{codeQuota, ErrQuota},
	{CodeDraining, ErrDraining},
	{CodeDuplicateOp, ErrDuplicateOp},
	{codeVersionSkew, ErrVersionSkew},
	{codeExpired, ErrExpired},
	{codeMalformed, errMalformed},
}

// CodeOf classifies an error for the wire: the code of the sentinel it wraps,
// CodeGeneric when it wraps none.
func CodeOf(err error) ErrCode {
	for _, w := range wireErrors {
		if errors.Is(err, w.err) {
			return w.code
		}
	}
	return CodeGeneric
}

// Sentinel returns the typed error a wire code stands for, nil for a code
// that stands for none (CodeOK, CodeGeneric, or one this build does not know).
func Sentinel(code ErrCode) error {
	for _, w := range wireErrors {
		if w.code == code {
			return w.err
		}
	}
	return nil
}

// ProtocolVersion is the wire protocol generation this build speaks. Clients
// stamp it on Hello/Resume; daemons refuse a mismatched, non-zero version
// with codeVersionSkew. Zero is accepted as an unstamped hello: a frame
// leaves out a zero field, so a peer that stamps nothing sends no version.
//
// Version 2 added BatchItem.SrcRef: a v1 daemon would decode a v2 client's
// interned batch as items with empty sources, so the two must not talk.
// Version 3 replaced gob with the binary codec of wire.go. A v2 peer fails at
// its first frame, before any version check: gob's bytes are not a frame of
// this codec, so its hello gets no reply, not even codeVersionSkew, and the
// connection is torn down once the bytes fail to decode or the peer gives up.
const ProtocolVersion uint32 = 3

// Op enumerates command-channel operations.
type Op uint8

// Command opcodes, mirroring the CUDA calls the Slate API wraps.
const (
	OpHello Op = iota + 1
	OpMalloc
	OpFree
	OpMemcpyH2D
	OpMemcpyD2H
	OpLaunch
	OpLaunchSource
	OpSynchronize
	OpClose
	// OpResume replaces OpHello for a client reconnecting after a daemon
	// restart or transport loss: it presents the session token from the
	// original hello and asks the daemon to reattach the recovered session
	// state (dedup window, pending launch outcomes).
	OpResume
	// OpPing is the fleet health monitor's lightweight heartbeat: it touches
	// no session state and replies immediately with the daemon's current
	// load, so a supervisor can feed a failure detector and a placement
	// router from one cheap round trip.
	OpPing
	// OpLaunchBatch carries N stamped launches in one frame (batched
	// dispatch): the daemon admits, journals, and acks the whole batch in one
	// round trip — one group-commit fsync instead of N — and replies with a
	// per-item BatchAck slice in batch order.
	OpLaunchBatch
)

func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpMalloc:
		return "malloc"
	case OpFree:
		return "free"
	case OpMemcpyH2D:
		return "memcpyH2D"
	case OpMemcpyD2H:
		return "memcpyD2H"
	case OpLaunch:
		return "launch"
	case OpLaunchSource:
		return "launchSource"
	case OpSynchronize:
		return "synchronize"
	case OpClose:
		return "close"
	case OpResume:
		return "resume"
	case OpPing:
		return "ping"
	case OpLaunchBatch:
		return "launchBatch"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one client→daemon command.
type Request struct {
	Op  Op
	Seq uint64
	// Proc names the client process (hello).
	Proc string
	// Size is the allocation or transfer size.
	Size int64
	// Buf is the shared-buffer handle the command refers to.
	Buf uint64
	// Data carries bulk bytes for remote transfers (empty for in-process
	// clients, which write the shared buffer directly).
	Data []byte
	// Token identifies an in-process kernel spec (OpLaunch).
	Token uint64
	// Stream selects the CUDA stream for OpLaunch (0 = default) and
	// OpSynchronize (-1 = whole device).
	Stream int
	// TaskSize is the requested SLATE_ITERS grouping.
	TaskSize int
	// Source carries CUDA source for OpLaunchSource.
	Source string
	// Kernel names the kernel within Source.
	Kernel string
	// GridX, GridY, BlockX, BlockY describe the launch geometry
	// (OpLaunchSource).
	GridX, GridY, BlockX, BlockY int
	// OpID is the per-session monotonically increasing operation ID the
	// client stamps on launches (0 = unstamped). The daemon journals it with
	// the launch and dedups replays, so a reconnecting client re-sending an
	// un-acked launch gets exactly-once execution.
	OpID uint64
	// Batch carries the items of an OpLaunchBatch, in submission order. Each
	// item is a fully stamped launch; Request-level launch fields are unused
	// for batched sends.
	Batch []BatchItem
	// SessionToken is the resume credential presented with OpResume.
	SessionToken uint64
	// Version is the client's ProtocolVersion, stamped on OpHello and
	// OpResume so the daemon can refuse version skew before any session
	// state is touched. Zero = unstamped (accepted).
	Version uint32
	// Deadline is the client's per-op deadline in Unix nanoseconds (0 =
	// none). It rides the frame so the daemon can shed already-expired
	// work — at admission and again at the queue head — with codeExpired
	// instead of executing launches nobody is waiting for.
	Deadline int64
}

// Reply is one daemon→client response.
type Reply struct {
	Seq uint64
	Err string
	// Code classifies Err so clients recover typed sentinel errors.
	Code ErrCode
	// Session is the daemon-assigned session ID (hello); it tags
	// session-owned resources so teardown can reclaim them.
	Session uint64
	// Degraded reports that a source launch fell back to the untransformed
	// vanilla path after an injection/compilation failure (launchSource).
	Degraded bool
	// Buf is the allocated shared-buffer handle (malloc).
	Buf uint64
	// DevPtr is the daemon-side device pointer recorded in the hash table
	// (malloc); clients never dereference it.
	DevPtr uint64
	// Data carries bulk bytes back for remote D2H transfers.
	Data []byte
	// Entries lists compiled entry points (launchSource).
	Entries []string
	// Token is the session resume credential (hello/resume); presenting it
	// with OpResume after a reconnect reattaches the session's recovered
	// state.
	Token uint64
	// Dup reports that this reply replays the stored outcome of an op the
	// daemon had already accepted — the launch was not executed again.
	Dup bool
	// Recovered reports the resume verdict: true means the daemon restarted
	// (or the transport dropped) and the session's durable state was
	// recovered; false on an OpResume reply means the state was lost and the
	// client got a fresh, degraded session instead.
	Recovered bool
	// Load is the daemon's current session count (ping), excluding the
	// probing connection itself; the fleet router uses it for placement.
	Load int64
	// LoadSeq is a daemon-side monotonic stamp on Load (ping). Hedged probe
	// conns can deliver ping replies out of order; the fleet router keeps
	// only the highest-sequence load report per member so a stale reading
	// never overwrites a fresher one. Zero = unstamped (always applied).
	LoadSeq uint64
	// Acks carries the per-item outcomes of an OpLaunchBatch, in the batch's
	// submission order. Reply-level Err/Code describe batch-level refusals
	// (draining, poisoned session); per-item accept/reject verdicts live here.
	Acks []BatchAck
}

// BatchItem is one stamped launch inside an OpLaunchBatch request: the same
// fields a single OpLaunch/OpLaunchSource carries, minus the envelope.
type BatchItem struct {
	// Src selects the source-launch path (Source/Kernel/geometry) over the
	// in-process spec-token path (Token).
	Src      bool
	Token    uint64
	TaskSize int
	Stream   int
	// OpID is the per-session monotonic op ID; every batched item must be
	// stamped (the daemon refuses unstamped items).
	OpID uint64
	// Source is the CUDA text of a source item. An item whose text an earlier
	// item of the same frame already carries leaves it empty and sets SrcRef.
	Source string
	// SrcRef, when non-zero, is 1 + the index of an earlier item of this
	// frame that carries this item's Source; see ResolveSrcRefs. It means
	// nothing across frames, so a resend never depends on what the daemon
	// remembers.
	SrcRef                       int
	Kernel                       string
	GridX, GridY, BlockX, BlockY int
}

// ResolveSrcRefs replaces every SrcRef in one frame's items with the Source
// it names, in place (the strings share memory). A ref must be on a source
// item that has no text of its own and must name an earlier source item that
// does: forward and self refs, refs onto spec items, refs onto items that are
// themselves refs and out-of-range refs all fail with errMalformed, and the
// caller must then refuse the whole frame — items up to the bad one have
// been resolved, which is harmless.
func ResolveSrcRefs(items []BatchItem) error {
	for i := range items {
		it := &items[i]
		if it.SrcRef == 0 {
			continue
		}
		switch {
		case !it.Src:
			return fmt.Errorf("%w: batch item %d is not a source launch but has SrcRef %d", errMalformed, i, it.SrcRef)
		case it.Source != "":
			return fmt.Errorf("%w: batch item %d has both a Source and SrcRef %d", errMalformed, i, it.SrcRef)
		case it.SrcRef < 0 || it.SrcRef > i:
			return fmt.Errorf("%w: batch item %d has SrcRef %d, want an earlier item in 1..%d", errMalformed, i, it.SrcRef, i)
		}
		// Earlier items are already resolved, so a carrier that was itself a
		// ref cannot be told apart by its Source; its SrcRef still can.
		carrier := &items[it.SrcRef-1]
		if !carrier.Src || carrier.SrcRef != 0 {
			return fmt.Errorf("%w: batch item %d has SrcRef %d, which does not carry a source", errMalformed, i, it.SrcRef)
		}
		it.Source = carrier.Source
	}
	return nil
}

// CheckOpOrder refuses, with errMalformed, a frame whose stamped op IDs do
// not strictly ascend. The daemon checks every item of a frame against the
// session's dedup watermark before it accepts any, so one op stamped twice in
// a frame would run twice; the caller must refuse the whole frame. Unstamped
// items (OpID 0) are skipped: they are refused one by one.
func CheckOpOrder(items []BatchItem) error {
	var last uint64
	for i := range items {
		op := items[i].OpID
		if op == 0 {
			continue
		}
		if op <= last {
			return fmt.Errorf("%w: batch item %d has op ID %d, not above an earlier item's %d", errMalformed, i, op, last)
		}
		last = op
	}
	return nil
}

// BatchAck is one item's accept-time verdict inside an OpLaunchBatch reply.
type BatchAck struct {
	OpID uint64
	Code ErrCode
	Err  string
	// Degraded/Entries mirror the source-launch ack fields.
	Degraded bool
	Entries  []string
	// Dup marks a replayed op answered from the dedup window.
	Dup bool
}

// Conn carries Requests and Replies over a net.Conn in the wire codec's
// frames (wire.go). Safe for one reader and one writer concurrently; writers
// serialize on Send's lock, and each frame is one Write. Frames are
// stateless: each one decodes on its own.
type Conn struct {
	c    net.Conn
	wmu  sync.Mutex
	enc  walker // under wmu; its buffer is the outgoing frame
	rd   wireReader
	dec  walker
	once sync.Once
}

// NewConn wraps a transport connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, rd: wireReader{r: c}}
}

// send writes m as one frame.
func (c *Conn) send(m walkable) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame, err := c.enc.encodeFrame(m)
	if err == nil {
		_, err = c.c.Write(frame)
	}
	if cap(c.enc.b) > keptBufSize {
		c.enc.b = nil
	}
	return err
}

// recv reads the next frame into m.
func (c *Conn) recv(m walkable) error {
	payload, err := c.rd.next()
	if err != nil {
		return err
	}
	return c.dec.decode(payload, m)
}

// SendRequest writes one command frame.
func (c *Conn) SendRequest(r *Request) error { return c.send(r) }

// RecvRequest reads one command frame (daemon side).
func (c *Conn) RecvRequest() (*Request, error) {
	r := new(Request)
	if err := c.recv(r); err != nil {
		return nil, err
	}
	return r, nil
}

// SendReply writes one response frame (daemon side).
func (c *Conn) SendReply(r *Reply) error { return c.send(r) }

// RecvReply reads one response frame.
func (c *Conn) RecvReply() (*Reply, error) {
	r := new(Reply)
	if err := c.recv(r); err != nil {
		return nil, err
	}
	return r, nil
}

// RoundTrip is the one-shot request/reply for a connection with exactly one
// call in flight — a handshake on a fresh transport, a heartbeat on a
// throwaway one. A positive timeout bounds the whole exchange, the send as
// well as the receive (a peer that accepts and never reads blocks a sender
// just as a silent one blocks a receiver), and is cleared on return. A reply
// carrying another call's Seq is an error: the framing is desynchronized.
// Errors are the transport's own; mapping them and Reply.Err to typed causes
// stays with the caller. Pipelined callers route replies by Seq themselves.
func (c *Conn) RoundTrip(req *Request, timeout time.Duration) (*Reply, error) {
	if timeout > 0 {
		_ = c.c.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = c.c.SetDeadline(time.Time{}) }()
	}
	if err := c.SendRequest(req); err != nil {
		return nil, err
	}
	rep, err := c.RecvReply()
	if err != nil {
		return nil, err
	}
	if rep.Seq != req.Seq {
		return nil, fmt.Errorf("ipc: reply %d for request %d", rep.Seq, req.Seq)
	}
	return rep, nil
}

// SetReadDeadline bounds the next Recv on the transport; a zero time clears
// it. Clients use it for per-operation deadlines.
func (c *Conn) SetReadDeadline(t time.Time) error {
	return c.c.SetReadDeadline(t)
}

// SetWriteDeadline bounds the next Send on the transport; a zero time clears
// it. Clients use it so a wedged peer cannot block a sender indefinitely
// while it holds the send-ordering lock.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	return c.c.SetWriteDeadline(t)
}

// Close closes the transport once.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() { err = c.c.Close() })
	return err
}

// BufferRegistry is the shared-memory segment: buffer handles map to byte
// slices both sides of an in-process connection can touch directly. It
// doubles as the daemon's "hash table mapping shared buffer addresses to
// GPU pointers" (§IV-A1) via the DevPtr it assigns each buffer.
type BufferRegistry struct {
	mu     sync.Mutex
	next   uint64
	bufs   map[uint64][]byte
	devPtr map[uint64]uint64
	// TotalBytes tracks live allocation for device-memory accounting.
	TotalBytes int64
	// Capacity bounds total live allocation (0 = unbounded); allocations
	// beyond it fail like cudaMalloc returning cudaErrorMemoryAllocation.
	Capacity int64
	// AllocHook, when set, runs before every allocation; a non-nil return
	// fails the allocation with ErrDeviceOOM (fault injection).
	AllocHook func(size int64) error
}

// NewBufferRegistry returns an empty, unbounded registry.
func NewBufferRegistry() *BufferRegistry {
	return &BufferRegistry{next: 1, bufs: map[uint64][]byte{}, devPtr: map[uint64]uint64{}}
}

// Create allocates a buffer and returns its handle and simulated device
// pointer.
func (r *BufferRegistry) Create(size int64) (handle, devPtr uint64, err error) {
	if size <= 0 {
		return 0, 0, fmt.Errorf("ipc: invalid buffer size %d", size)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.AllocHook != nil {
		if err := r.AllocHook(size); err != nil {
			return 0, 0, fmt.Errorf("%v: %w", err, ErrDeviceOOM)
		}
	}
	if r.Capacity > 0 && r.TotalBytes+size > r.Capacity {
		return 0, 0, fmt.Errorf("%w: %d requested, %d of %d in use",
			ErrDeviceOOM, size, r.TotalBytes, r.Capacity)
	}
	h := r.next
	r.next++
	r.bufs[h] = make([]byte, size)
	// Device pointers are synthetic but stable and non-overlapping.
	d := 0x7f0000000000 + h<<24
	r.devPtr[h] = d
	r.TotalBytes += size
	return h, d, nil
}

// Get returns the live slice for a handle.
func (r *BufferRegistry) Get(handle uint64) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bufs[handle]
	if !ok {
		return nil, fmt.Errorf("ipc: unknown buffer %d", handle)
	}
	return b, nil
}

// DevPtr returns the device pointer recorded for a handle.
func (r *BufferRegistry) DevPtr(handle uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devPtr[handle]
	if !ok {
		return 0, fmt.Errorf("ipc: unknown buffer %d", handle)
	}
	return d, nil
}

// Release frees a buffer.
func (r *BufferRegistry) Release(handle uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bufs[handle]
	if !ok {
		return fmt.Errorf("ipc: double free of buffer %d", handle)
	}
	r.TotalBytes -= int64(len(b))
	delete(r.bufs, handle)
	delete(r.devPtr, handle)
	return nil
}

// Len returns the number of live buffers.
func (r *BufferRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.bufs)
}
