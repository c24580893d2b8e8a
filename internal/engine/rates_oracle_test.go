package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// referenceRates is the rate fixpoint as it stood before the engine resolved
// locality per handle and hoisted the share-independent terms: every
// iteration evaluates every kernel in full, fetching its hit rate and run
// length from the model anew (eight lookups per kernel per recompute), with
// the occupancy recomputed from the block shape and a fresh grants slice per
// arbitration. It is the oracle computeRates must match bit for bit. It
// shares only allocate with the engine and writes nothing to the handles.
func referenceRates(e *Engine, now vtime.Time) (snaps []rateSnap, alloc []float64) {
	n := len(e.running)
	alloc = append([]float64(nil), e.allocate(now)...)
	shares := make([]float64, n)
	for i := range shares {
		shares[i] = 1.0 / float64(n)
	}
	snaps = make([]rateSnap, n)
	demands := make([]float64, n)
	uncon := make([]float64, n)
	accessRates := make([]float64, n)

	l2Size := float64(e.Dev.L2.SizeBytes)
	sharers := 0
	for i := range e.running {
		if alloc[i] > 0 {
			sharers++
		}
	}

	hitRate := func(h *Handle, l2Bytes float64) float64 {
		if tm, ok := e.Model.(*TraceModel); ok {
			return tm.HitRate(h.spec, h.opts.Mode, h.opts.TaskSize, l2Bytes)
		}
		return e.Model.Locality(h.spec, h.opts.Mode, h.opts.TaskSize).HitRate(l2Bytes)
	}
	meanRunBytes := func(h *Handle) float64 {
		if tm, ok := e.Model.(*TraceModel); ok {
			return tm.MeanRunBytes(h.spec, h.opts.Mode, h.opts.TaskSize)
		}
		return e.Model.Locality(h.spec, h.opts.Mode, h.opts.TaskSize).RunBytes
	}
	activeWorkers := func(h *Handle, smAlloc float64) float64 {
		resident := float64(e.Dev.ResidentBlocks(h.spec.Shape()))
		capacity := math.Floor(smAlloc * resident)
		if capacity < 1 {
			capacity = 1
		}
		unit := 1.0
		if h.opts.Mode == SlateSched {
			unit = float64(h.opts.TaskSize)
		}
		unitsTotal := math.Ceil(h.numBlocks / unit)
		fullWaves := math.Floor(unitsTotal / capacity)
		lastWave := unitsTotal - fullWaves*capacity
		if lastWave == 0 {
			lastWave = capacity
			fullWaves--
		}
		if h.blocksDone >= fullWaves*capacity*unit {
			return lastWave
		}
		return capacity
	}

	passOne := func(i int) {
		h := e.running[i]
		s := alloc[i]
		if s <= 0 {
			snaps[i] = rateSnap{}
			return
		}
		hit := hitRate(h, shares[i]*l2Size)
		runB := meanRunBytes(h)
		runEff := e.Dev.DRAM.RunEfficiency(runB)
		dramPB := h.spec.L2BytesPerBlock * (1 - hit)

		active := activeWorkers(h, s)
		occ := s
		if active < occ {
			occ = active
		}
		if occ <= 0 {
			snaps[i] = rateSnap{}
			return
		}
		warpsPerSM := active * h.warpsPerBlock / occ
		mlp := h.spec.MemMLP
		if mlp <= 0 {
			mlp = 1
		}
		cUtil := e.Dev.SM.ComputeUtil(warpsPerSM)
		mUtil := e.Dev.SM.MemUtil(warpsPerSM * mlp)

		ovh := 1.0
		if h.opts.Mode == SlateSched {
			ovh = 1 + e.Dev.InjectedInstrOverhead
		}
		ops := h.spec.OpsPerBlock
		if ops <= 0 {
			ops = h.spec.FLOPsPerBlock
		}
		computeRate := math.Inf(1)
		if ops > 0 {
			rc := occ * e.Dev.SM.PeakFLOPS() * h.spec.ComputeEff * cUtil
			computeRate = rc / (ops * ovh)
		}
		l2Rate := math.Inf(1)
		if h.spec.L2BytesPerBlock > 0 {
			rl2 := e.Dev.DRAM.L2Ceiling(int(math.Ceil(occ)), e.Dev.NumSMs)
			l2Rate = rl2 / h.spec.L2BytesPerBlock
		}
		floor := e.Dev.BlockLatencySeconds
		serialRate := math.Inf(1)
		if h.opts.Mode == HardwareSched {
			floor += e.Dev.BlockDispatchSeconds
		} else {
			floor += e.Dev.AtomicSerialSeconds / float64(h.opts.TaskSize)
			serialRate = float64(h.opts.TaskSize) / e.Dev.AtomicSerialSeconds
		}
		latRate := active / floor

		r := math.Min(computeRate, math.Min(l2Rate, math.Min(latRate, serialRate)))
		uncon[i] = r
		snaps[i] = rateSnap{hit: hit, dramPB: dramPB}
		if dramPB > 0 {
			memEff := h.spec.MemEff
			if memEff <= 0 {
				memEff = 1
			}
			dramCeil := e.Dev.DRAM.StreamCeiling(int(math.Ceil(occ))) * runEff * mUtil * memEff
			if sharers > 1 {
				dramCeil *= e.Dev.DRAM.CorunEff()
			}
			demands[i] = math.Min(r*dramPB, dramCeil)
		}
	}

	for iter := 0; iter < 4; iter++ {
		for i := range demands {
			demands[i], uncon[i], accessRates[i] = 0, 0, 0
		}
		for i := 0; i < n; i++ {
			passOne(i)
		}
		grants := e.Dev.DRAM.Arbitrate(demands)
		totalAccess := 0.0
		for i, h := range e.running {
			if alloc[i] <= 0 {
				continue
			}
			r := uncon[i]
			throttle := 0.0
			if snaps[i].dramPB > 0 {
				dramRate := grants[i] / snaps[i].dramPB
				if dramRate < r {
					throttle = 1 - dramRate/r
					r = dramRate
				}
			}
			snaps[i].rate = r
			snaps[i].throttle = throttle
			accessRates[i] = r * h.spec.L2BytesPerBlock
			totalAccess += accessRates[i]
		}
		if totalAccess > 0 {
			for i := range shares {
				shares[i] = accessRates[i] / totalAccess
			}
		}
	}
	return snaps, alloc
}

// oracleSpecs is one seed's kernel pool: every trace-pattern shape plus a
// pattern-less streaming kernel, each with a randomized work model.
func oracleSpecs(rng *rand.Rand) []*kern.Spec {
	pool := append(paritySpecs(), &kern.Spec{Name: "nopattern", Grid: kern.D1(1500), BlockDim: kern.D1(256)})
	for _, s := range pool {
		s.FLOPsPerBlock = float64(1+rng.Intn(1000)) * 1e4
		s.InstrPerBlock = float64(1+rng.Intn(100)) * 1e3
		s.L2BytesPerBlock = float64(1+rng.Intn(1000)) * 1e3
		s.ComputeEff = 0.05 + rng.Float64()*0.5
		s.MemMLP = rng.Float64() * 8
		s.MemEff = rng.Float64()
		s.RegsPerThread = []int{0, 32, 64}[rng.Intn(3)]
	}
	return pool
}

// TestRateFixpointMatchesReference is the differential oracle for
// computeRates: over randomized kernel sets — 1 to 24 kernels, both modes,
// mixed task sizes, random progress (full waves and tails), paused and
// zero-allocation kernels, resolved and still-unresolved handles — every
// handle's rate snapshot equals referenceRates bit for bit, at Workers 1 and
// 4 (gate lowered so the static pass fans at any width) and under all three
// model kinds.
func TestRateFixpointMatchesReference(t *testing.T) {
	dev := device.TitanXp()
	l2 := float64(dev.L2.SizeBytes)
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		pool := oracleSpecs(rng)

		trace := NewTraceModel(dev)
		trace.MaxAccesses = 20_000
		trace.Seed = seed
		static := &StaticModel{
			DefaultHit: rng.Float64(), DefaultRunBytes: 512, SlateHitBonus: 0.1, SlateRunFactor: 4,
			Hit: map[string]float64{}, RunBytes: map[string]float64{},
		}
		foot := &footprintModel{footprint: map[string]float64{}, maxHit: 0.5 + rng.Float64()/2}
		for _, s := range pool[:len(pool)/2] {
			static.Hit[s.Name] = rng.Float64()
			static.RunBytes[s.Name] = float64(rng.Intn(1 << 16))
		}
		for _, s := range pool[1:] {
			foot.footprint[s.Name] = l2 * (0.1 + 3*rng.Float64())
		}
		models := []struct {
			name string
			m    PerfModel
		}{{"trace", trace}, {"static", static}, {"footprint", foot}}

		for _, mk := range models {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("seed%d/%s/workers%d", seed, mk.name, workers), func(t *testing.T) {
					old := rateFanKernels
					rateFanKernels = 12
					defer func() { rateFanKernels = old }()
					for trial := 0; trial < 12; trial++ {
						checkRatesAgainstReference(t, rng, dev, mk.m, workers, pool)
					}
				})
			}
		}
	}
}

// checkRatesAgainstReference launches a random kernel set, then for a few
// rounds perturbs progress, pauses and resolution state and compares
// computeRates with referenceRates at that instant — twice per round, the
// second call a memo hit with the same handles unresolved again. A last round
// returns to the first round's configuration after the others, which the
// memo must serve without solving.
func checkRatesAgainstReference(t *testing.T, rng *rand.Rand, dev *device.Device, m PerfModel, workers int, pool []*kern.Spec) {
	t.Helper()
	clk := vtime.NewClock()
	e := New(dev, clk, m)
	e.Workers = workers

	n := 1 + rng.Intn(24)
	nextSM := 0
	for i := 0; i < n; i++ {
		opts := LaunchOpts{Mode: HardwareSched, TaskSize: []int{0, 1, 4, 10, 32}[rng.Intn(5)]}
		// Slate kernels take disjoint ranges while SMs last; the rest are
		// hardware kernels, most of which the leftover policy leaves at zero.
		if width := 1 + rng.Intn(4); rng.Intn(3) > 0 && nextSM+width <= dev.NumSMs {
			opts.Mode, opts.SMLow, opts.SMHigh = SlateSched, nextSM, nextSM+width-1
			nextSM += width
		}
		if _, err := e.Launch(pool[rng.Intn(len(pool))], opts); err != nil {
			t.Fatal(err)
		}
	}

	now := clk.Now()
	const rounds = 4
	firstDone := make([]float64, len(e.running))
	firstPaused := make([]vtime.Time, len(e.running))
	unresolve := make([]bool, len(e.running))
	for round := 0; round <= rounds; round++ {
		for i, h := range e.running {
			if h.resident != float64(dev.ResidentBlocks(h.spec.Shape())) {
				t.Fatalf("%s: cached resident %v, device says %d", h.spec.Name, h.resident, dev.ResidentBlocks(h.spec.Shape()))
			}
			if round == rounds {
				h.blocksDone, h.pausedUntil = firstDone[i], firstPaused[i]
			} else {
				switch rng.Intn(4) {
				case 0:
					h.blocksDone = 0
				case 1:
					h.blocksDone = math.Floor(rng.Float64() * h.numBlocks)
				case 2: // deep in the tail
					h.blocksDone = h.numBlocks - 1 - float64(rng.Intn(8))
				}
				h.pausedUntil = 0
				if rng.Intn(6) == 0 {
					h.pausedUntil = now.Add(1000)
				}
			}
			if round == 0 {
				firstDone[i], firstPaused[i] = h.blocksDone, h.pausedUntil
			}
			unresolve[i] = rng.Intn(3) == 0
		}
		want, wantAlloc := referenceRates(e, now)
		for call := 0; call < 2; call++ {
			for i, h := range e.running {
				if unresolve[i] {
					h.loc = nil
				}
			}
			solved, reused := e.memo.solved, e.memo.reused
			e.computeRates(now)
			if (call == 1 || round == rounds) && (e.memo.solved != solved || e.memo.reused != reused+1) {
				t.Fatalf("round %d call %d: memo solved %d→%d, reused %d→%d; want a hit", round, call, solved, e.memo.solved, reused, e.memo.reused)
			}
			for i, h := range e.running {
				if call == 1 && unresolve[i] && h.loc != nil {
					t.Fatalf("round %d kernel %d: a memo hit resolved the handle's locality", round, i)
				}
				got := [5]float64{h.rate, h.dramPerBlk, h.hitRate, h.memThrottle, h.smAlloc}
				ref := [5]float64{want[i].rate, want[i].dramPB, want[i].hit, want[i].throttle, wantAlloc[i]}
				for f, name := range [5]string{"rate", "dramPerBlk", "hitRate", "memThrottle", "smAlloc"} {
					if math.Float64bits(got[f]) != math.Float64bits(ref[f]) {
						t.Fatalf("round %d call %d kernel %d/%d (%s, %v, task %d, alloc %v): %s = %v (%#x), reference %v (%#x)",
							round, call, i, len(e.running), h.spec.Name, h.opts.Mode, h.opts.TaskSize, wantAlloc[i],
							name, got[f], math.Float64bits(got[f]), ref[f], math.Float64bits(ref[f]))
					}
				}
			}
		}
	}
}

// TestRateMemoBounded launches more distinct specs on one engine than the
// memo holds — one long-lived kernel plus a rotating second, each rotation a
// fresh spec — and checks that the memo never exceeds its bound, that spec
// IDs keep counting across the clears, and that every solve, the long-lived
// kernel's included, still matches the reference bit for bit.
func TestRateMemoBounded(t *testing.T) {
	dev := device.TitanXp()
	static := &StaticModel{DefaultHit: 0.4, DefaultRunBytes: 512, SlateHitBonus: 0.1, SlateRunFactor: 4}
	e := New(dev, vtime.NewClock(), static)
	check := func(step int) {
		t.Helper()
		want, wantAlloc := referenceRates(e, e.Clock.Now())
		for i, h := range e.running {
			got := [5]float64{h.rate, h.dramPerBlk, h.hitRate, h.memThrottle, h.smAlloc}
			ref := [5]float64{want[i].rate, want[i].dramPB, want[i].hit, want[i].throttle, wantAlloc[i]}
			for f := range got {
				if math.Float64bits(got[f]) != math.Float64bits(ref[f]) {
					t.Fatalf("step %d kernel %d (%s): field %d = %v, reference %v", step, i, h.spec.Name, f, got[f], ref[f])
				}
			}
		}
		if len(e.memo.index) > rateMemoCap || len(e.memo.specs) > rateMemoCap {
			t.Fatalf("step %d: memo holds %d entries and %d spec IDs, cap %d", step, len(e.memo.index), len(e.memo.specs), rateMemoCap)
		}
	}

	mid := dev.NumSMs / 2
	longSpec := paritySpecs()[0]
	if _, err := e.Launch(longSpec, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: mid - 1}); err != nil {
		t.Fatal(err)
	}
	const launches = rateMemoCap + 500
	for step := 0; step < launches; step++ {
		spec := paritySpecs()[step%5]
		spec.L2BytesPerBlock = float64(1+step%97) * 1e3
		h, err := e.Launch(spec, LaunchOpts{Mode: SlateSched, TaskSize: 1 + step%7, SMLow: mid, SMHigh: mid + step%(dev.NumSMs-mid)})
		if err != nil {
			t.Fatal(err)
		}
		check(step)
		if step%1000 == 999 {
			// A second handle on the long-lived spec, launched after the IDs
			// were cleared, must not alias anything it should not.
			again, err := e.Launch(longSpec, LaunchOpts{Mode: HardwareSched})
			if err != nil {
				t.Fatal(err)
			}
			check(step)
			if _, err := e.Evict(again); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Evict(h); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	if e.memo.nextSpecID <= rateMemoCap {
		t.Fatalf("%d spec IDs assigned for %d distinct specs", e.memo.nextSpecID, launches+1)
	}
	if e.memo.solved <= rateMemoCap {
		t.Fatalf("%d solves never filled the %d-entry memo", e.memo.solved, rateMemoCap)
	}
}
