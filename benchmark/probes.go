package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"slate/framework"
	"slate/harness"
	"slate/internal/cache"
	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/inject"
	"slate/internal/ipc"
	"slate/internal/journal"
	"slate/internal/kern"
	"slate/internal/nvrtc"
	"slate/internal/profile"
	"slate/internal/traces"
	"slate/internal/vtime"
	"slate/workloads"
)

// prober runs the per-layer probes: each times calls into one layer's public
// functions with the inputs the workloads use, records a span per call, and
// files its numbers under the layer's metric names.
type prober struct {
	cfg config
	tr  *tracer
	m   map[string]float64
}

// timed runs fn as one root span and returns how long it took. The span is
// named "probe:"+name, so the budget never adds a probe's call to the
// workload's own span of the same call.
func (p *prober) timed(name string, fn func()) time.Duration {
	s := p.tr.begin("probe:"+name, -1, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(s)
	return d
}

// medianUS times fn n times and returns the median and the ascending sample,
// in µs.
func (p *prober) medianUS(name string, n int, fn func()) (float64, []float64) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(p.timed(name, fn)) / 1e3
	}
	s := sortedCopy(xs)
	return percentile(s, 50), s
}

// runProbes runs every probe. Every traced run emits every per-layer metric,
// whatever its workload, so the budgets of all five workloads can be read
// off any one of them and set against each other.
func runProbes(cfg config, tr *tracer) (map[string]float64, error) {
	p := &prober{cfg: cfg, tr: tr, m: map[string]float64{}}
	for _, probe := range []struct {
		name string
		fn   func() error
	}{
		{"model", p.model},
		{"engine", p.engine},
		{"vtime", p.vtime},
		{"harness", p.harness},
		{"ipc", p.ipc},
		{"journal", p.journal},
		{"executor", p.executor},
		{"daemon", p.daemon},
		{"recover", p.recover},
		{"client", p.client},
		{"source", p.source},
	} {
		if err := probe.fn(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.name, err)
		}
	}
	return p.m, nil
}

// probeModes are the two scheduling regimes every kernel's model is built
// for.
var probeModes = []engine.Mode{engine.HardwareSched, engine.SlateSched}

// modelTaskSize is the SLATE_ITERS grouping the schedulers launch with.
const modelTaskSize = 10

// newModel is the trace model harness.New builds.
func (p *prober) newModel(dev *device.Device) *engine.TraceModel {
	m := engine.NewTraceModel(dev)
	m.Seed = p.cfg.seed
	m.BuildWorkers = runtime.NumCPU()
	m.MaxAccesses /= p.cfg.scale
	return m
}

// assembleConfig is the AssembleConfig TraceModel uses for spec under mode.
func assembleConfig(dev *device.Device, m *engine.TraceModel, spec *kern.Spec, mode engine.Mode) traces.AssembleConfig {
	workers := dev.MaxWorkers(spec.Shape(), dev.NumSMs)
	if workers < 1 {
		workers = 1
	}
	if nb := spec.Pattern.NumBlocks(); workers > nb {
		workers = nb
	}
	acfg := traces.AssembleConfig{
		Order: traces.HardwareOrder, Workers: workers, TaskSize: 1,
		Chunk: 8, Seed: m.Seed, MaxAccesses: m.MaxAccesses,
	}
	if mode == engine.SlateSched {
		acfg.Order, acfg.TaskSize = traces.SlateOrder, modelTaskSize
	}
	return acfg
}

// model times the three layers of a cold model build — trace assembly, the
// one-pass miss-ratio curve, and TraceModel around them — over the paper's
// kernels × both modes, then a warm lookup.
func (p *prober) model() error {
	dev := device.TitanXp()
	m := p.newModel(dev)
	var assemble, mrc, build time.Duration
	var accesses int
	apps := workloads.Apps()
	for _, app := range apps {
		for _, mode := range probeModes {
			spec := app.Kernel
			var sizes []int
			build += p.timed("engine.TraceModel.MissRatioCurve", func() {
				sizes, _ = m.MissRatioCurve(spec, mode, modelTaskSize)
			})
			if spec.Pattern == nil {
				continue
			}
			acfg := assembleConfig(dev, m, spec, mode)
			var trace []uint64
			assemble += p.timed("traces.Assemble", func() { trace = traces.Assemble(spec.Pattern, acfg) })
			accesses += len(trace)
			mrc += p.timed("cache.ReuseDistanceMRCWorkers", func() {
				cache.ReuseDistanceMRCWorkers(dev.L2, trace, sizes, runtime.NumCPU())
			})
		}
	}
	if accesses == 0 {
		return fmt.Errorf("no kernel produced a trace")
	}
	p.m["traces.assemble_s"] = assemble.Seconds()
	p.m["traces.accesses"] = float64(accesses)
	p.m["traces.assemble_ns_per_access"] = float64(assemble) / float64(accesses)
	p.m["cache.mrc_s"] = mrc.Seconds()
	p.m["cache.mrc_ns_per_access"] = float64(mrc) / float64(accesses)
	p.m["engine.model_build_s"] = build.Seconds()

	lookups := p.cfg.scaled(200_000, 1000)
	d := p.timed("engine.TraceModel.HitRate", func() {
		for i := 0; i < lookups; i++ {
			app := apps[i%len(apps)]
			m.HitRate(app.Kernel, probeModes[i%2], modelTaskSize, 1<<20)
		}
	})
	p.m["engine.model_lookup_ns"] = float64(d) / float64(lookups)
	return nil
}

// engine times the event loop on its own: one solo launch per kernel on a
// warm model, repeated, and the profiler's cold measurement on the same
// warm model.
func (p *prober) engine() error {
	dev := device.TitanXp()
	m := p.newModel(dev)
	apps := workloads.Apps()
	for _, app := range apps {
		for _, mode := range probeModes {
			m.MissRatioCurve(app.Kernel, mode, modelTaskSize)
		}
	}
	reps := p.cfg.scaled(200, 2)
	var events uint64
	var failed error
	host := p.timed("engine.solo", func() {
		for r := 0; r < reps; r++ {
			for _, app := range apps {
				clk := vtime.NewClock()
				e := engine.New(dev, clk, m)
				e.Workers = runtime.NumCPU()
				h, err := e.Launch(app.Kernel, engine.LaunchOpts{Mode: engine.HardwareSched})
				if err != nil {
					failed = err
					return
				}
				clk.Run(5_000_000)
				if !h.Done() {
					failed = fmt.Errorf("solo run of %s did not complete", app.Code)
					return
				}
				if r == 0 {
					events += clk.Fired()
				}
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.m["engine.solo_events"] = float64(events)
	p.m["engine.solo_host_s"] = host.Seconds() / float64(reps)
	p.m["engine.host_ns_per_event"] = float64(host) / float64(reps) / float64(events)

	var get time.Duration
	for _, app := range apps {
		prof := profile.New(dev, m)
		var err error
		get += p.timed("profile.Profiler.Get", func() { _, err = prof.Get(app.Kernel) })
		if err != nil {
			return err
		}
	}
	p.m["profile.get_s"] = get.Seconds()
	return nil
}

// vtime times a million no-op events through one Clock and through a
// ShardedClock with one shard per core.
func (p *prober) vtime() error {
	n := p.cfg.scaled(1_000_000, 1000)
	noop := func(vtime.Time) {}
	// Events 100 ns apart: the sharded run crosses a window barrier every
	// 10k events instead of finishing in one window.
	const gap = 100 * vtime.Nanosecond

	clk := vtime.NewClock()
	d := p.timed("vtime.Clock", func() {
		for i := 0; i < n; i++ {
			clk.At(vtime.Time(i)*vtime.Time(gap), noop)
		}
		clk.Run(n + 1)
	})
	if clk.Fired() != uint64(n) {
		return fmt.Errorf("clock fired %d of %d events", clk.Fired(), n)
	}
	p.m["vtime.ns_per_event"] = float64(d) / float64(n)

	shards := runtime.NumCPU()
	sc := vtime.NewSharded(shards, vtime.Millisecond)
	sc.Workers = shards
	d = p.timed("vtime.ShardedClock", func() {
		for i := 0; i < n; i++ {
			sc.Shard(i%shards).At(vtime.Time(i)*vtime.Time(gap), noop)
		}
		sc.Run(n + 1)
	})
	if sc.Fired() != uint64(n) {
		return fmt.Errorf("sharded clock fired %d of %d events", sc.Fired(), n)
	}
	p.m["vtime.sharded_ns_per_event"] = float64(d) / float64(n)
	return nil
}

// simulatedSeconds is Σ MeanSec over a sweep's 45 cells.
func simulatedSeconds(res *harness.Fig7Result) float64 {
	var s float64
	for _, row := range res.Rows {
		for _, sec := range row.MeanSec {
			s += sec
		}
	}
	return s
}

// harness times the heaviest cell cold and warm, then whole sweeps at the
// defaults and strictly serial — cold and warm each — which is what tells
// the parallel layers' worth, and reads the simulated statistics off the
// result.
func (p *prober) harness() error {
	hc := harnessConfig(p.cfg)
	h := newHarness(p.cfg, hc)
	cell := h.HeaviestPairIndex()
	for _, name := range []string{"harness.cell_cold_s", "harness.cell_warm_s"} {
		var err error
		d := p.timed("harness.SimBenchCell", func() { _, err = h.SimBenchCell(cell) })
		if err != nil {
			return err
		}
		p.m[name] = d.Seconds()
	}

	serial := hc
	serial.Parallel, serial.SimWorkers = 1, 1
	var res *harness.Fig7Result
	sweepTime := func(hh *harness.Harness) (time.Duration, error) {
		var err error
		d := p.timed("harness.Fig7", func() { res, err = hh.Fig7() })
		return d, err
	}
	// Default last: its result is the one the simulated statistics and the
	// render budget are read from.
	hSerial, hDefault := newHarness(p.cfg, serial), newHarness(p.cfg, hc)
	var cold, warm [2]time.Duration
	for i, hh := range []*harness.Harness{hSerial, hDefault} {
		var err error
		if cold[i], err = sweepTime(hh); err != nil {
			return err
		}
		if warm[i], err = sweepTime(hh); err != nil {
			return err
		}
	}
	p.m["harness.par_speedup_cold"] = cold[0].Seconds() / cold[1].Seconds()
	p.m["harness.par_speedup_warm"] = warm[0].Seconds() / warm[1].Seconds()
	p.m["harness.cold_minus_warm_s"] = (cold[1] - warm[1]).Seconds()

	renders := p.cfg.scaled(200, 2)
	us, _ := p.medianUS("Fig7Result.Render+CSV", renders, func() { _ = res.Render() + res.CSV() })
	p.m["harness.render_us"] = us
	p.m["sim.slate_vs_mps_pct"] = res.SlateVsMPS * 100
	p.m["sim.slate_vs_cuda_pct"] = res.SlateVsCUDA * 100
	p.m["sim.simulated_s_per_host_s"] = simulatedSeconds(res) / cold[1].Seconds()
	p.m["sim_err_pp"] = simErrPP(res)
	return nil
}

// countingConn counts the bytes written to a net.Conn.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

// batchRequest is the frame launch_batch or launch_source submits.
func batchRequest(source bool) *ipc.Request {
	items := make([]ipc.BatchItem, batchSize)
	for j := range items {
		items[j] = ipc.BatchItem{Token: uint64(j + 1), TaskSize: specTaskSize, OpID: uint64(j + 1)}
		if source {
			k := sourceKernels[j%2]
			items[j] = ipc.BatchItem{
				Src: true, Source: userSource, Kernel: k.name, TaskSize: sourceTaskSize, OpID: uint64(j + 1),
				GridX: k.grid.X, GridY: k.grid.Y, BlockX: k.block.X, BlockY: k.block.Y,
			}
		}
	}
	return &ipc.Request{Op: ipc.OpLaunchBatch, Seq: 1, Batch: items}
}

// ipc times a request/reply round trip over net.Pipe with an echo goroutine
// on the far side, for a frame shaped as each launch workload's, and counts
// the request frame's bytes once gob has sent its type descriptors.
func (p *prober) ipc() error {
	batchReply := &ipc.Reply{Seq: 1, Acks: make([]ipc.BatchAck, batchSize)}
	for _, shape := range []struct {
		name  string
		req   *ipc.Request
		reply *ipc.Reply
	}{
		{"launch", &ipc.Request{Op: ipc.OpLaunch, Seq: 1, Token: 1, TaskSize: specTaskSize, OpID: 1}, &ipc.Reply{Seq: 1}},
		{"batch32", batchRequest(false), batchReply},
		{"batch32_source", batchRequest(true), batchReply},
	} {
		near, far := net.Pipe()
		counted := &countingConn{Conn: near}
		cli, srv := ipc.NewConn(counted), ipc.NewConn(far)
		echoDone := make(chan error, 1)
		go func() {
			for {
				if _, err := srv.RecvRequest(); err != nil {
					echoDone <- err
					return
				}
				if err := srv.SendReply(shape.reply); err != nil {
					echoDone <- err
					return
				}
			}
		}()
		var rtErr error
		roundTrip := func() {
			if err := cli.SendRequest(shape.req); err != nil {
				rtErr = err
				return
			}
			if _, err := cli.RecvReply(); err != nil {
				rtErr = err
			}
		}
		roundTrip() // carries gob's type descriptors
		before := counted.written.Load()
		frames := p.cfg.scaled(2000, 20)
		us, _ := p.medianUS("ipc.roundtrip."+shape.name, frames, roundTrip)
		p.m["ipc."+shape.name+"_roundtrip_us"] = us
		p.m["ipc."+shape.name+"_frame_bytes"] = float64((counted.written.Load() - before) / int64(frames))
		cli.Close()
		<-echoDone // the echo goroutine ends on the closed pipe
		srv.Close()
		if rtErr != nil {
			return rtErr
		}
	}
	return nil
}

// acceptRecord is the journal record one accepted spec launch writes.
func acceptRecord(op uint64) *journal.Record {
	return &journal.Record{Kind: journal.KindLaunchAccept, Sess: 1, OpID: op, TaskSize: specTaskSize}
}

// checkpointProbe is a one-session compaction snapshot: the session's resume
// state with a full dedup window, as the daemon's checkpoint holds it.
type checkpointProbe struct {
	NextSess uint64             `json:"next_sess"`
	Sessions []checkpointedSess `json:"sessions"`
}

type checkpointedSess struct {
	Sess   uint64              `json:"sess"`
	Token  uint64              `json:"tok"`
	Proc   string              `json:"proc"`
	MaxOp  uint64              `json:"max_op"`
	Window []journal.AdoptedOp `json:"window"`
}

// journal times the write-ahead log alone, in the state dir so it sees the
// file system the daemon sees: single appends, group commits of 32, a
// checkpoint and a replay.
func (p *prober) journal() error {
	dir, err := os.MkdirTemp(p.cfg.stateDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.wal")
	w, err := journal.OpenWriter(path)
	if err != nil {
		return err
	}
	defer w.Close()
	var op uint64
	var appendErr error
	note := func(err error) {
		if err != nil && appendErr == nil {
			appendErr = err
		}
	}
	singles := p.cfg.scaled(1000, 20)
	us, sample := p.medianUS("journal.Writer.Append", singles, func() {
		op++
		note(w.Append(acceptRecord(op)))
	})
	p.m["journal.append_us"] = us
	p.m["journal.append_p95_us"] = percentile(sample, 95)
	if st, err := os.Stat(path); err == nil && appendErr == nil {
		p.m["journal.record_bytes"] = float64(st.Size()) / float64(singles)
	}
	us, _ = p.medianUS("journal.Writer.AppendBatch", p.cfg.scaled(300, 10), func() {
		recs := make([]*journal.Record, batchSize)
		for i := range recs {
			op++
			recs[i] = acceptRecord(op)
		}
		note(w.AppendBatch(recs))
	})
	p.m["journal.append_batch32_us"] = us

	snap := checkpointProbe{NextSess: 2, Sessions: []checkpointedSess{{Sess: 1, Token: 1, Proc: "bench", MaxOp: daemon.DedupWindow}}}
	for i := 1; i <= daemon.DedupWindow; i++ {
		snap.Sessions[0].Window = append(snap.Sessions[0].Window, journal.AdoptedOp{OpID: uint64(i), Done: true, TaskSize: specTaskSize})
	}
	us, _ = p.medianUS("journal.WriteCheckpoint", p.cfg.scaled(100, 5), func() {
		note(journal.WriteCheckpoint(filepath.Join(dir, "probe.ckpt"), &snap, nil))
	})
	p.m["journal.checkpoint_us"] = us

	// A 4096-record log, written without fsync since only reading is timed.
	replayPath := filepath.Join(dir, "replay.wal")
	rw, err := journal.OpenWriter(replayPath)
	if err != nil {
		return err
	}
	rw.NoSync = true
	records := p.cfg.scaled(4096, 64)
	for i := 0; i < records; i++ {
		note(rw.Append(acceptRecord(uint64(i + 1))))
	}
	note(rw.Close())
	var stats journal.ReplayStats
	d := p.timed("journal.Replay", func() {
		stats, err = journal.Replay(replayPath, func(*journal.Record) error { return nil })
	})
	note(err)
	if appendErr == nil && stats.Records != records {
		appendErr = fmt.Errorf("replayed %d of %d records", stats.Records, records)
	}
	p.m["journal.replay_us_per_record"] = float64(d) / 1e3 / float64(records)
	return appendErr
}

// executor times the layer under the dispatcher: Executor.Run of the no-op
// spec, and the grid transformation's parallel run it is built on.
func (p *prober) executor() error {
	x := daemon.NewExecutor(4)
	spec := noopSpec()
	var runErr error
	us, _ := p.medianUS("daemon.Executor.Run", p.cfg.scaled(4000, 40), func() {
		if err := x.Run(spec, specTaskSize); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	p.m["daemon.exec_run_us"] = us

	const blocks = 4096
	t, err := framework.Transform(kern.D1(blocks), modelTaskSize)
	if err != nil {
		return err
	}
	var ran atomic.Int64
	us, _ = p.medianUS("transform.RunParallel", p.cfg.scaled(200, 4), func() {
		framework.RunParallel(t, framework.NewQueue(t), 4, func(int, kern.Dim3) { ran.Add(1) })
	})
	if ran.Load()%blocks != 0 {
		return fmt.Errorf("RunParallel ran %d blocks, not a multiple of %d", ran.Load(), blocks)
	}
	p.m["transform.run_parallel_ns_per_block"] = us * 1e3 / blocks
	return nil
}

// daemon times launch_single's shape against three daemons that differ only
// in how they persist, so the launch path splits by subtraction: durable −
// nosync is the fsync wait, nosync − volatile the journal's encode and write,
// and what is left of volatile after exec_run and the ipc round trip is
// admission, dispatch and demux. The durable leg is also where the disk's
// share of launch_single is reported: throughput, the tail, and the
// Synchronize after every 32.
func (p *prober) daemon() error {
	n := p.cfg.scaled(8192, batchSize)
	p50 := map[durability]float64{}
	for _, leg := range []struct {
		dur  durability
		name string
	}{
		{volatileDaemon, "volatile"},
		{noSyncDaemon, "nosync"},
		{durableDaemon, "durable"},
	} {
		e, err := openEnv(p.cfg, kindSingle, leg.dur, 0)
		if err != nil {
			return err
		}
		var lat []float64
		took := p.timed("launch.single."+leg.name, func() { lat, err = e.run(kindSingle, n) })
		if err != nil {
			e.stop()
			return err
		}
		lat = sortedCopy(lat)
		p50[leg.dur] = percentile(lat, 50)
		p.m["daemon."+leg.name+"_launch_us"] = p50[leg.dur]
		if leg.dur == durableDaemon {
			p.m["daemon.durable_single_per_s"] = float64(n) / took.Seconds()
			p.m["client.launch_p99_us"] = percentile(lat, 99)
			p.m["client.launch_p999_us"] = percentile(lat, 99.9)
			p.m["client.sync_after32_us"] = median(e.syncs)
		}
		if errs := e.finish(kindSingle); len(errs) > 0 {
			return errs[0]
		}
	}
	p.m["daemon.fsync_share"] = (p50[durableDaemon] - p50[noSyncDaemon]) / p50[durableDaemon]

	var drainErr error
	us, _ := p.medianUS("daemon.Server.Drain", p.cfg.scaled(200, 4), func() {
		if err := daemon.NewServer(4).Drain(time.Second); err != nil {
			drainErr = err
		}
	})
	p.m["daemon.drain_us"] = us
	return drainErr
}

// recover times a restart: EnableDurability over the state dir a killed
// daemon left after 4096 completed launches. Compaction is off for this one
// daemon so the journal holds every record and the count repeats exactly:
// one session-open plus an accept and a completion per launch.
func (p *prober) recover() error {
	e, err := openEnv(p.cfg, kindBatch, durableDaemon, noCompaction)
	if err != nil {
		return err
	}
	defer e.stop()
	n := p.cfg.scaled(4096, batchSize)
	if _, err := e.run(kindBatch, n); err != nil {
		return err
	}
	e.srv.Kill()
	_ = e.srv.CloseDurability() // the killed daemon's writer is already dead

	srv := daemon.NewServer(4)
	var stats *daemon.RecoveryStats
	d := p.timed("daemon.Server.EnableDurability", func() {
		stats, err = srv.EnableDurability(daemon.Durability{Dir: e.dir})
	})
	if err != nil {
		return err
	}
	if err := srv.CloseDurability(); err != nil {
		return err
	}
	p.m["daemon.recover_s"] = d.Seconds()
	p.m["daemon.recovered_records"] = float64(stats.Records)
	return nil
}

// client times the session calls around a launch against a durable daemon:
// the hello handshake, an idle Synchronize (the pure round trip inside every
// op) and Close.
func (p *prober) client() error {
	e, err := openEnv(p.cfg, kindSingle, durableDaemon, 0)
	if err != nil {
		return err
	}
	n := p.cfg.scaled(200, 4)
	open, closing, idle := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n && err == nil; i++ {
		var c *client.Client
		open[i] = float64(p.timed("client.Local", func() { c, err = client.Local(e.srv, e.dial, "probe") })) / 1e3
		if err != nil {
			break
		}
		idle[i] = float64(p.timed("client.Synchronize.idle", func() { err = c.Synchronize() })) / 1e3
		closing[i] = float64(p.timed("client.Close", func() {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		})) / 1e3
	}
	if err != nil {
		e.stop()
		return err
	}
	if errs := e.finish(kindSingle); len(errs) > 0 {
		return errs[0]
	}
	p.m["client.open_us"] = median(open)
	p.m["client.close_us"] = median(closing)
	p.m["client.sync_idle_us"] = median(idle)
	return nil
}

var shapeNames = map[launchKind]string{kindSingle: "single", kindBatch: "batch", kindSource: "source"}

// source times the two stages every source item pays — injection and
// runtime compilation, cold and from the cache — then runs launch_batch's
// and launch_source's shapes at small scale for the tail and the hit ratio
// the other workloads' traced runs report.
func (p *prober) source() error {
	var out string
	var err error
	us, _ := p.medianUS("inject.Transform", p.cfg.scaled(400, 4), func() {
		out, err = inject.Transform(userSource, inject.Options{TaskSize: sourceTaskSize, EmitDispatcher: true})
	})
	if err != nil {
		return err
	}
	p.m["inject.transform_us"] = us
	var c *nvrtc.Compiler
	us, _ = p.medianUS("nvrtc.Compile.cold", p.cfg.scaled(200, 4), func() {
		c = nvrtc.New()
		_, err = c.Compile(out)
	})
	if err != nil {
		return err
	}
	p.m["nvrtc.compile_cold_us"] = us
	us, _ = p.medianUS("nvrtc.Compile.hit", p.cfg.scaled(4000, 40), func() { _, err = c.Compile(out) })
	if err != nil {
		return err
	}
	p.m["nvrtc.compile_hit_us"] = us

	for _, kind := range []launchKind{kindBatch, kindSource} {
		e, err := openEnv(p.cfg, kind, durableDaemon, 0)
		if err != nil {
			return err
		}
		n := p.cfg.scaled(8192, batchSize)
		var lat []float64
		took := p.timed("launch."+shapeNames[kind], func() { lat, err = e.run(kind, n) })
		if err != nil {
			e.stop()
			return err
		}
		if kind == kindBatch {
			p.m["daemon.durable_batch_per_s"] = float64(n) / took.Seconds()
			p.m["client.batch_p99_us"] = percentile(sortedCopy(lat), 99)
		} else {
			p.m["daemon.durable_source_per_s"] = float64(n) / took.Seconds()
			p.m["nvrtc.cache_hit_ratio"] = e.compileHitRatio()
		}
		if errs := e.finish(kind); len(errs) > 0 {
			return errs[0]
		}
	}
	return nil
}
