// Package framework is the public face of the Slate runtime: the daemon
// (server), the client library, the kernel transformation, and the source
// injection pipeline. A typical embedded use:
//
//	srv, dial := framework.NewLocalDaemon(8)
//	cli, _ := framework.Connect(srv, dial, "myproc")
//	buf, _ := cli.Malloc(1 << 20)
//	cli.Launch(mykernel, framework.DefaultTaskSize)
//	cli.Synchronize()
//
// For separate processes, run cmd/slated and dial its Unix socket.
package framework

import (
	"context"
	"net"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/inject"
	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/internal/nvrtc"
	"slate/internal/policy"
	"slate/internal/transform"
)

// Re-exported runtime types.
type (
	// Daemon is the Slate server: sessions, context funneling, the
	// workload-aware executor, and the injection/compilation pipeline.
	Daemon = daemon.Server
	// Client is one application process's connection to the daemon.
	Client = client.Client
	// Buffer is a device allocation (zero-copy for in-process clients).
	Buffer = client.Buffer
	// Kernel is an executable kernel descriptor.
	Kernel = kern.Spec
	// Dim3 mirrors CUDA launch geometry.
	Dim3 = kern.Dim3
	// Transformed is a flattened Slate grid.
	Transformed = transform.Transformed
	// Queue is the device task queue with the retreat signal.
	Queue = transform.Queue
	// RunResult summarizes one worker-set execution.
	RunResult = transform.RunResult
	// Class is a workload class (L_C .. H_M).
	Class = policy.Class
	// InjectOptions configures source transformation.
	InjectOptions = inject.Options
	// Compiler is the runtime compiler with its compile cache.
	Compiler = nvrtc.Compiler
	// Batch accumulates launches for one amortized OpLaunchBatch submit;
	// build with Client.NewBatch.
	Batch = client.Batch
	// BatchAck is one batched item's verdict, in submission order.
	BatchAck = ipc.BatchAck
	// ClientOption configures a client connection (timeouts, sharing).
	ClientOption = client.Option
	// RetryConfig shapes DialRetry's exponential backoff.
	RetryConfig = client.RetryConfig
	// BackoffConfig shapes WithBackpressureRetry's backoff and circuit
	// breaker.
	BackoffConfig = client.BackoffConfig
	// Durability configures the daemon's crash-safe state layer (journal +
	// checkpoint directory); see Daemon.EnableDurability.
	Durability = daemon.Durability
	// RecoveryStats summarizes what a durable daemon recovered at startup.
	RecoveryStats = daemon.RecoveryStats
	// AdoptStats summarizes a Daemon.AdoptState call — sessions re-homed
	// into this daemon from a dead or drained peer's state directory.
	AdoptStats = daemon.RehomeStats
	// FaultConfig sets seeded fault-injection probabilities.
	FaultConfig = fault.Config
	// FaultInjector deterministically perturbs the transport, allocator,
	// and compiler for chaos testing.
	FaultInjector = fault.Injector
)

// Typed sentinel errors every failed client call wraps; branch with
// errors.Is.
var (
	// ErrTimeout: a per-op deadline expired (see WithTimeout).
	ErrTimeout = client.ErrTimeout
	// ErrDaemonDown: the daemon is unreachable or the transport failed.
	ErrDaemonDown = client.ErrDaemonDown
	// ErrDeviceOOM: device memory allocation failed.
	ErrDeviceOOM = client.ErrDeviceOOM
	// ErrKernelPanic: a kernel body panicked and poisoned its session.
	ErrKernelPanic = client.ErrKernelPanic
	// ErrKernelTimeout: a launch was abandoned at the containment deadline
	// and poisoned its session.
	ErrKernelTimeout = client.ErrKernelTimeout
	// ErrBackpressure: the session's pending-launch queue is full.
	ErrBackpressure = client.ErrBackpressure
	// ErrQuota: the session's device-memory quota is exceeded.
	ErrQuota = client.ErrQuota
	// ErrDraining: the daemon is shutting down and admits no new work.
	ErrDraining = client.ErrDraining
	// ErrCircuitOpen: the client's breaker tripped after repeated
	// rejections; launches fail fast without a round trip.
	ErrCircuitOpen = client.ErrCircuitOpen
	// ErrDuplicateOp: a replayed launch was already accepted, but its
	// outcome aged out of the daemon's dedup window (it ran exactly once).
	ErrDuplicateOp = client.ErrDuplicateOp
	// ErrSessionLost: the daemon restarted without durable state for this
	// session; the run continues degraded in a fresh session.
	ErrSessionLost = client.ErrSessionLost
	// ErrExpired: a launch's propagated deadline passed before it executed;
	// the daemon shed it (at admission or at the queue head) without
	// running it.
	ErrExpired = client.ErrExpired
)

// WithTimeout bounds every command round trip; expired calls fail with
// ErrTimeout instead of blocking forever.
func WithTimeout(d time.Duration) ClientOption { return client.WithTimeout(d) }

// WithLaunchDeadline stamps every launch with an absolute execution
// deadline (now + d, re-stamped per retry attempt) that rides the wire to
// the daemon: work that cannot start in time is shed with ErrExpired at
// admission or at the queue head instead of executing uselessly late.
func WithLaunchDeadline(d time.Duration) ClientOption { return client.WithLaunchDeadline(d) }

// WithBackpressureRetry retries backpressured launches with capped jittered
// backoff, failing fast with ErrCircuitOpen once the breaker trips.
func WithBackpressureRetry(bc BackoffConfig) ClientOption {
	return client.WithBackpressureRetry(bc)
}

// DialRetry connects over an arbitrary transport with exponential backoff
// plus jitter, for clients that may start before the daemon (or outlive a
// daemon restart).
func DialRetry(dial func() (net.Conn, error), proc string, rc RetryConfig, opts ...ClientOption) (*Client, error) {
	return client.DialRetry(dial, proc, rc, opts...)
}

// DialRetryContext is DialRetry honoring ctx: cancellation aborts the
// backoff between attempts with an error wrapping ctx.Err().
func DialRetryContext(ctx context.Context, dial func() (net.Conn, error), proc string, rc RetryConfig, opts ...ClientOption) (*Client, error) {
	return client.DialRetryContext(ctx, dial, proc, rc, opts...)
}

// WithContext attaches a context whose cancellation aborts waits inside
// the client's retry loops (backpressure backoff, Resume redials).
func WithContext(ctx context.Context) ClientOption { return client.WithContext(ctx) }

// NewFaultInjector builds a seeded deterministic fault injector.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// DefaultTaskSize is the paper's SLATE_ITERS default of 10 user blocks per
// task.
const DefaultTaskSize = transform.DefaultTaskSize

// NewDaemon builds a daemon whose executor owns the given worker budget.
func NewDaemon(budget int) *Daemon { return daemon.NewServer(budget) }

// NewLocalDaemon builds an in-process daemon and a dial function producing
// connected transports.
func NewLocalDaemon(budget int) (*Daemon, func() net.Conn) { return daemon.NewLocal(budget) }

// Connect attaches a new in-process client to a local daemon.
func Connect(srv *Daemon, dial func() net.Conn, proc string, opts ...ClientOption) (*Client, error) {
	return client.Local(srv, dial, proc, opts...)
}

// Dial attaches a client over an arbitrary transport (e.g. a Unix socket to
// cmd/slated). Remote clients move data through transfer commands and use
// LaunchSource rather than executable specs.
func Dial(conn net.Conn, proc string, opts ...ClientOption) (*Client, error) {
	return client.New(conn, proc, opts...)
}

// Transform flattens a kernel grid for Slate scheduling.
func Transform(grid Dim3, taskSize int) (*Transformed, error) {
	return transform.Transform(grid, taskSize)
}

// NewQueue creates the task queue for a transformed grid.
func NewQueue(t *Transformed) *Queue { return transform.NewQueue(t) }

// RunParallel executes fn for every user block with persistent workers
// pulling from q.
func RunParallel(t *Transformed, q *Queue, workers int, fn func(glob int, id Dim3)) RunResult {
	return transform.RunParallel(t, q, workers, fn)
}

// RunToCompletion repeatedly relaunches worker sets until the queue drains
// (the dispatch-kernel loop).
func RunToCompletion(t *Transformed, q *Queue, workers int, resize func(launch int) int, fn func(glob int, id Dim3)) RunResult {
	return transform.RunToCompletion(t, q, workers, resize, fn)
}

// InjectSource rewrites every __global__ kernel in CUDA source into its
// Slate form (Listings 1-3).
func InjectSource(src string, opt InjectOptions) (string, error) {
	return inject.Transform(src, opt)
}

// NewCompiler builds a runtime compiler with an empty cache.
func NewCompiler() *Compiler { return nvrtc.New() }
