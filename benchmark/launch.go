package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// batchSize is the group size of all three launch workloads: a Synchronize
// after every 32 single launches, and batches of 32 items.
const batchSize = 32

// Warm-up launches per workload, part of set-up: enough that setup_s is
// hundreds of milliseconds, never tens, and the executor profile and the
// compile cache are past their first pass.
const (
	warmSingle = 16384
	warmBatch  = 32768
	warmSource = 4096
)

// noCompaction is a CompactEvery no window reaches. Compaction writes a
// checkpoint with two fsyncs whatever NoSync says, so a daemon that must not
// wait for the disk must not compact either.
const noCompaction = 1 << 30

// userSource is the translation unit of examples/injection: two kernels, so
// a source batch alternates between them.
const userSource = `// user application code
#include <cuda_runtime.h>

__global__ void saxpy(const float a, const float *x, float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;           // boundary guard keeps its meaning
    y[i] = a * x[i] + y[i];
}

__global__ void stencil2d(float *out, const float *in, int w, int h) {
    int cx = blockIdx.x * 16 + threadIdx.x;
    int cy = blockIdx.y * 16 + threadIdx.y;
    if (cx > 0 && cy > 0 && cx < w-1 && cy < h-1 && blockIdx.y < gridDim.y) {
        out[cy*w + cx] = 0.25f * (in[cy*w+cx-1] + in[cy*w+cx+1] +
                                  in[(cy-1)*w+cx] + in[(cy+1)*w+cx]);
    }
}
`

// sourceKernels are the two launches a source batch alternates: name, grid,
// block. Both are 4 blocks, like the spec launch.
var sourceKernels = [2]struct {
	name        string
	grid, block kern.Dim3
}{
	{"saxpy", kern.D2(4, 1), kern.D2(32, 1)},
	{"stencil2d", kern.D2(2, 2), kern.D2(16, 16)},
}

// sourceTaskSize is the SLATE_ITERS grouping of the source launches, the
// value examples/injection uses.
const sourceTaskSize = 10

const specName = "bench_noop"

// specTaskSize is the task size of the spec launches: one task per block.
const specTaskSize = 4

// noopSpec is the launched kernel: a minimal valid 4-block spec with a no-op
// body, so the launch path is measured and not simulated compute.
func noopSpec() *kern.Spec {
	return &kern.Spec{
		Name: specName, Grid: kern.D1(4), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, L2BytesPerBlock: 1e4,
		ComputeEff: 0.5,
		Exec:       func(int) {},
	}
}

// launchKind selects one of the three launch shapes.
type launchKind int

const (
	kindSingle launchKind = iota
	kindBatch
	kindSource
)

// launchEnv is one daemon with one connected client session.
type launchEnv struct {
	dir  string
	srv  *daemon.Server
	dial func() net.Conn // in-process transport (spec kinds only)
	cli  *client.Client
	spec *kern.Spec
	// Unix-socket serving (kindSource only).
	ln       net.Listener
	serveErr chan error
	// acked counts launches the daemon accepted, per executor kernel name;
	// finish compares it with srv.Exec.Runs.
	acked map[string]int
	// syncs holds the duration of every Synchronize that followed a group of
	// single launches.
	syncs []float64
}

// durability selects how a daemon persists: not at all, journal written but
// never fsynced, or the default every user gets.
type durability int

const (
	volatileDaemon durability = iota
	noSyncDaemon
	durableDaemon
)

// openEnv starts a daemon in a fresh directory under cfg.stateDir and opens
// the client session. kindSource serves on a Unix socket exactly as
// cmd/slated does; the spec kinds use the in-process transport, the only one
// executable specs can cross.
func openEnv(cfg config, kind launchKind, dur durability, compactEvery int) (*launchEnv, error) {
	dir, err := os.MkdirTemp(cfg.stateDir, "daemon-")
	if err != nil {
		return nil, err
	}
	e := &launchEnv{dir: dir, spec: noopSpec(), acked: map[string]int{}}
	if kind == kindSource {
		e.srv = daemon.NewServer(4)
	} else {
		e.srv, e.dial = daemon.NewLocal(4)
	}
	e.srv.TokenSeed = uint64(cfg.seed)
	if dur != volatileDaemon {
		if _, err := e.srv.EnableDurability(daemon.Durability{
			Dir: dir, NoSync: dur == noSyncDaemon, CompactEvery: compactEvery,
		}); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("enable durability: %w", err)
		}
	}
	timeout := client.WithTimeout(30 * time.Second)
	if kind != kindSource {
		e.cli, err = client.Local(e.srv, e.dial, "bench", timeout)
	} else {
		sock := filepath.Join(dir, "s.sock")
		if e.ln, err = net.Listen("unix", sock); err == nil {
			e.serveErr = make(chan error, 1)
			go func() { e.serveErr <- e.srv.Serve(e.ln) }()
			var conn net.Conn
			if conn, err = net.Dial("unix", sock); err == nil {
				e.cli, err = client.New(conn, "bench", timeout)
			}
		}
	}
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("open session: %w", err)
	}
	return e, nil
}

// stop releases what openEnv acquired, without checks. The listener goes
// first so Serve returns.
func (e *launchEnv) stop() {
	if e.ln != nil {
		e.ln.Close()
		<-e.serveErr
	}
	_ = e.srv.CloseDurability() // a volatile daemon has none to close
	os.RemoveAll(e.dir)
}

// launchOne is launch_single's op: the accept ack a cudaLaunchKernel caller
// waits for.
func (e *launchEnv) launchOne(tr *tracer, root, op int) error {
	s := tr.begin("client.Launch", root, op)
	err := e.cli.Launch(e.spec, specTaskSize)
	tr.end(s)
	if err != nil {
		return err
	}
	e.acked[specName]++
	return nil
}

// syncGroup is the Synchronize that follows every batchSize single launches.
func (e *launchEnv) syncGroup(tr *tracer, op int) error {
	s := tr.begin("client.Synchronize", -1, op)
	t0 := time.Now()
	err := e.cli.Synchronize()
	e.syncs = append(e.syncs, float64(time.Since(t0))/1e3)
	tr.end(s)
	return err
}

// launchBatch is the op of launch_batch and launch_source: build a batch of
// batchSize items, Submit, check every ack, Synchronize.
func (e *launchEnv) launchBatch(source bool, tr *tracer, root, op int) error {
	s := tr.begin("batch.build", root, op)
	b := e.cli.NewBatch()
	var err error
	for j := 0; j < batchSize && err == nil; j++ {
		if source {
			k := sourceKernels[j%2]
			err = b.LaunchSource(userSource, k.name, k.grid, k.block, sourceTaskSize)
		} else {
			err = b.Launch(e.spec, specTaskSize)
		}
	}
	tr.end(s)
	if err != nil {
		return fmt.Errorf("batch build: %w", err)
	}
	s = tr.begin("batch.Submit", root, op)
	acks, err := b.Submit()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if err := checkAcks(acks, source); err != nil {
		return err
	}
	if source {
		e.acked["src:"+sourceKernels[0].name] += batchSize / 2
		e.acked["src:"+sourceKernels[1].name] += batchSize / 2
	} else {
		e.acked[specName] += batchSize
	}
	s = tr.begin("client.Synchronize", root, op)
	err = e.cli.Synchronize()
	tr.end(s)
	return err
}

// checkAcks is the per-item output check of a batch: every item accepted
// with code 0, none answered from the dedup window, and no source item
// degraded to the vanilla path.
func checkAcks(acks []ipc.BatchAck, source bool) error {
	if len(acks) != batchSize {
		return fmt.Errorf("%d acks for a batch of %d", len(acks), batchSize)
	}
	for i, a := range acks {
		switch {
		case a.Code != ipc.CodeOK:
			return fmt.Errorf("item %d (op %d) refused with code %d: %s", i, a.OpID, a.Code, a.Err)
		case a.Dup:
			return fmt.Errorf("item %d (op %d) answered from the dedup window", i, a.OpID)
		case source && a.Degraded:
			return fmt.Errorf("item %d (op %d) degraded to the vanilla path", i, a.OpID)
		}
	}
	return nil
}

// run performs n launches of the kind's shape outside any window: the
// warm-up, and the probes that reuse a workload's shape at small scale. It
// returns the op latencies in µs.
func (e *launchEnv) run(kind launchKind, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	if kind == kindSingle {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := e.launchOne(nil, -1, i); err != nil {
				return nil, err
			}
			lat = append(lat, float64(time.Since(t0))/1e3)
			if (i+1)%batchSize == 0 {
				if err := e.syncGroup(nil, i); err != nil {
					return nil, err
				}
			}
		}
		return lat, nil
	}
	for i := 0; i < n; i += batchSize {
		t0 := time.Now()
		if err := e.launchBatch(kind == kindSource, nil, -1, i); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return lat, nil
}

// finish drains the session and the daemon and checks what they did: the
// executor ran exactly the launches that were acked, nothing was answered
// from the dedup window, and every shutdown step succeeded.
func (e *launchEnv) finish(kind launchKind) []error {
	var errs []error
	check := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	check("final synchronize", e.cli.Synchronize())
	check("close", e.cli.Close())
	for name, want := range e.acked {
		if got := e.srv.Exec.Runs(name); got != want {
			errs = append(errs, fmt.Errorf("executor ran %q %d times, %d launches were acked", name, got, want))
		}
	}
	if hits := e.srv.DedupHits(); hits != 0 {
		errs = append(errs, fmt.Errorf("%d dedup hits on a run that never re-sent", hits))
	}
	if kind == kindSource {
		if compiles, _ := e.srv.Compiler.Stats(); compiles != 1 {
			errs = append(errs, fmt.Errorf("%d compiles of one translation unit", compiles))
		}
	}
	check("drain", e.srv.Drain(10*time.Second))
	if e.ln != nil {
		check("listener close", e.ln.Close())
		check("serve", <-e.serveErr)
		e.ln = nil
	}
	check("close durability", e.srv.CloseDurability())
	check("remove state dir", os.RemoveAll(e.dir))
	return errs
}

// setupLaunch is the set-up of a launch workload: state dir, daemon with its
// journal on, listener and dial, session hello, then the fixed warm-up.
//
// The timed daemon journals every accept and completion but does not wait
// for the disk: no fsync and no compaction. With the default durability this
// host's fsync is 96 % of a single launch and its latency moved 2× within
// the hour it was sized in, so no end-to-end number repeated; what the disk
// adds is reported per layer instead, from the probes that run these same
// shapes against the default durable daemon (daemon.durable_*).
func setupLaunch(cfg config, kind launchKind) (*driver, error) {
	e, err := openEnv(cfg, kind, noSyncDaemon, noCompaction)
	if err != nil {
		return nil, err
	}
	warm := map[launchKind]int{kindSingle: warmSingle, kindBatch: warmBatch, kindSource: warmSource}[kind]
	if _, err := e.run(kind, cfg.scaled(warm, batchSize)); err != nil {
		e.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.syncs = e.syncs[:0]
	d := &driver{
		unit:   "launch",
		minOps: cfg.floor.samples,
		finish: func() []error { return e.finish(kind) },
	}
	switch kind {
	case kindSingle:
		d.unitsPerOp = 1
		d.op = func(i int, tr *tracer, root int) error { return e.launchOne(tr, root, i) }
		d.between = func(i int, tr *tracer) error {
			if (i+1)%batchSize != 0 {
				return nil
			}
			return e.syncGroup(tr, i)
		}
	case kindBatch, kindSource:
		d.unitsPerOp = batchSize
		d.op = func(i int, tr *tracer, root int) error { return e.launchBatch(kind == kindSource, tr, root, i) }
	}
	return d, nil
}

// compileHitRatio is CacheHits ÷ (CacheHits + Compiles) of the daemon's
// compiler.
func (e *launchEnv) compileHitRatio() float64 {
	compiles, hits := e.srv.Compiler.Stats()
	if compiles+hits == 0 {
		return 0
	}
	return float64(hits) / float64(compiles+hits)
}
