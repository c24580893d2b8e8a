// Package harness regenerates every table and figure of the paper's
// evaluation (§V) on the simulated Titan Xp: Fig. 1 (stream saturation),
// Table II (workload profiles), Table III (GS under CUDA vs Slate),
// Table IV (the BS-RG pair under MPS vs Slate), Table V (overhead
// inventory), Fig. 5 (task-size sweep), Fig. 6 (solo application time
// breakdown), and Fig. 7 (all 15 pairings under CUDA, MPS, and Slate).
//
// Each experiment returns a typed result with a Render method producing the
// text table the paper's figure/table reports, plus CSV for plotting.
package harness

import (
	"fmt"
	"strings"
	"sync/atomic"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/memo"
	"slate/internal/profile"
	"slate/internal/vtime"
	"slate/workloads"
)

// Config parameterizes the harness.
type Config struct {
	// Dev is the device model; nil selects the Titan Xp.
	Dev *device.Device
	// LoopSeconds is the solo-kernel loop target of §V-A3. The paper used
	// ~30 s; the default of 3 s produces identical normalized results in a
	// tenth of the events.
	LoopSeconds float64
	// Parallel bounds the worker pool running independent experiment cells
	// (pairings × schedulers, sweep points, table rows). 0 or 1 runs
	// serially. Output is byte-identical at every setting: cells write
	// index-assigned slots and aggregates are computed in a serial-order
	// post-pass, never from arrival order.
	Parallel int
	// SimWorkers parallelizes INSIDE a single experiment cell: the per-cell
	// scheduler simulations execute as shards of a vtime.ShardedClock
	// (SimBenchCell), engines fan the static pass of their rate fixpoint
	// across kernels (engine.Workers), and the trace model's LegacyMRC
	// oracle fans its capacity-point simulations (TraceModel.BuildWorkers).
	// 0 or 1 keeps every simulation strictly serial. Output is
	// byte-identical at every setting — see DESIGN.md §15. slatebench's one
	// worker flag, -parallel, sets this and Parallel to the same value.
	SimWorkers int
	// Seed drives trace-assembly determinism; 0 selects the calibrated
	// default of 1.
	Seed int64
}

// Harness owns the shared trace-driven performance model, the shared
// profiler, and a solo-time cache so experiments do not re-derive kernel
// locality. All three caches are content-addressed (kern.Spec.Fingerprint)
// and safe for the concurrent experiment cells the Parallel setting runs.
type Harness struct {
	Dev   *device.Device
	Model *engine.TraceModel
	// Prof is the profiler shared by every Slate backend the harness
	// builds; profiles are pure functions of (content, device, model), so
	// sharing changes nothing but wall-clock.
	Prof *profile.Profiler
	Loop float64

	par        int
	simWorkers int
	seed       int64

	solo memo.Map[string, float64] // kernel fingerprint → solo seconds

	// calibrated is Model.Len() as the last calibration pass returned. The
	// cells that follow should leave it there: an entry built after the pass
	// is one the pass did not know the cells would ask for
	// (TestCalibrationPassCoversTheSweep).
	calibrated atomic.Int64
}

// New builds a harness.
func New(cfg Config) *Harness {
	dev := cfg.Dev
	if dev == nil {
		dev = device.TitanXp()
	}
	loop := cfg.LoopSeconds
	if loop <= 0 {
		loop = 3.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	model := engine.NewTraceModel(dev)
	model.Seed = seed
	model.BuildWorkers = cfg.SimWorkers
	return &Harness{
		Dev:        dev,
		Model:      model,
		Prof:       profile.New(dev, model),
		Loop:       loop,
		par:        cfg.Parallel,
		simWorkers: cfg.SimWorkers,
		seed:       seed,
	}
}

// simWindow is the conservative window width for the harness's sharded
// sub-simulations. The shards (per-scheduler cell runs) never exchange
// events, so any width is correct; a finite window keeps the barrier
// machinery exercised on every run.
const simWindow = vtime.Millisecond

// soloKernelSec returns one launch's solo duration under the hardware
// scheduler, cached by the spec's content fingerprint — two kernels sharing
// a name but differing in geometry or work model get separate entries, and
// renamed instances of one kernel share one. Concurrent callers of an
// uncached kernel single-flight behind the first measurement.
func (h *Harness) soloKernelSec(spec *kern.Spec) (float64, error) {
	return h.solo.Get(spec.Fingerprint(), func() (float64, error) {
		m, err := h.soloRun(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
		return m.Duration().Seconds(), err
	})
}

// soloRun executes one launch on a scratch clock.
func (h *Harness) soloRun(spec *kern.Spec, opts engine.LaunchOpts) (engine.Metrics, error) {
	clk := vtime.NewClock()
	e := engine.New(h.Dev, clk, h.Model)
	e.Workers = h.simWorkers
	hd, err := e.Launch(spec, opts)
	if err != nil {
		return engine.Metrics{}, err
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return engine.Metrics{}, fmt.Errorf("harness: solo run of %q did not converge", spec.Name)
	}
	if !hd.Done() {
		return engine.Metrics{}, fmt.Errorf("harness: kernel %q incomplete", spec.Name)
	}
	return hd.Metrics(), nil
}

// modelShape is the (mode, task size) half of a trace-model key.
type modelShape struct {
	mode     engine.Mode
	taskSize int
}

// sweepShapes are the two entries every kernel of a scheduler comparison
// needs: hardware order for CUDA, MPS, solo calibration and the profiler's
// solo run, and Slate order at the default task size for the profiler's
// scaling pair and every launch the Slate scheduler makes.
var sweepShapes = []modelShape{
	{engine.HardwareSched, 1},
	{engine.SlateSched, engine.DefaultTaskSize},
}

// calibrate is the calibration pass an experiment runs before it fans its
// cells out: it builds the trace-model entries the cells will ask for —
// every distinct kernel among the groups of apps (by content fingerprint)
// under every shape — as independent items on the cell pool. Left to the
// cells, the builds are discovered lazily and the cells queue behind each
// other's single-flight builds (Fig. 7: 45 cells colliding on 10 entries).
// An entry is a pure function of its key, so building it early, and in
// whatever order the pool takes the items, cannot change a byte; on a warm
// model an item is one read-locked map hit.
func (h *Harness) calibrate(shapes []modelShape, groups ...[]*workloads.App) {
	var specs []*kern.Spec
	seen := map[string]bool{}
	for _, apps := range groups {
		for _, app := range apps {
			if fp := app.Kernel.Fingerprint(); !seen[fp] {
				seen[fp] = true
				specs = append(specs, app.Kernel)
			}
		}
	}
	_ = h.forEachCell(len(specs)*len(shapes), func(i int) error {
		sh := shapes[i%len(shapes)]
		h.Model.Locality(specs[i/len(shapes)], sh.mode, sh.taskSize)
		return nil
	})
	h.calibrated.Store(int64(h.Model.Len()))
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcell := range header {
		widths[i] = len(hcell)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// csvJoin renders rows as CSV.
func csvJoin(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}
