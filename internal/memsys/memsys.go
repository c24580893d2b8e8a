// Package memsys models the GPU memory system at the granularity the Slate
// scheduler cares about: how much DRAM bandwidth a kernel can pull given how
// many SMs it occupies (Fig. 1's saturation knee), how access-stream
// sequentiality changes achievable bandwidth (DRAM row locality), how the
// shared bus arbitrates between co-running kernels, and how long host-device
// transfers take over PCIe.
package memsys

import "fmt"

// DRAM is the device-memory bandwidth model.
type DRAM struct {
	// PeakBandwidth is the theoretical pin bandwidth in bytes/second
	// (547.6 GB/s for the Titan Xp's GDDR5X).
	PeakBandwidth float64
	// StreamEfficiency is the fraction of PeakBandwidth attainable by a
	// perfectly sequential stream (~0.88 on GDDR5X).
	StreamEfficiency float64
	// KneeSMs is the number of fully occupied SMs whose combined demand
	// saturates the bus. The paper measures 9 on the Titan Xp (Fig. 1).
	KneeSMs int
	// MinRunEfficiency is the bandwidth efficiency of a stream of isolated
	// single-line accesses (row-buffer miss per access).
	MinRunEfficiency float64
	// FullRunBytes is the sequential run length at which efficiency
	// saturates (row activations fully amortized).
	FullRunBytes float64
	// L2Bandwidth is the aggregate L2-to-SM bandwidth in bytes/second; it
	// caps accessed-byte throughput above what DRAM alone allows when hit
	// rates are high.
	L2Bandwidth float64
	// CorunEfficiency is the fraction of bandwidth efficiency retained
	// when independent kernels share the bus: their interleaved request
	// streams break row-buffer locality and conflict on channels, so the
	// achievable bandwidth of every sharer drops below its solo figure.
	CorunEfficiency float64
}

// Validate reports configuration errors.
func (d DRAM) Validate() error {
	switch {
	case d.PeakBandwidth <= 0:
		return fmt.Errorf("memsys: PeakBandwidth %v must be positive", d.PeakBandwidth)
	case d.StreamEfficiency <= 0 || d.StreamEfficiency > 1:
		return fmt.Errorf("memsys: StreamEfficiency %v outside (0,1]", d.StreamEfficiency)
	case d.KneeSMs <= 0:
		return fmt.Errorf("memsys: KneeSMs %d must be positive", d.KneeSMs)
	case d.MinRunEfficiency <= 0 || d.MinRunEfficiency > 1:
		return fmt.Errorf("memsys: MinRunEfficiency %v outside (0,1]", d.MinRunEfficiency)
	case d.FullRunBytes < 64:
		return fmt.Errorf("memsys: FullRunBytes %v below one line", d.FullRunBytes)
	case d.L2Bandwidth <= 0:
		return fmt.Errorf("memsys: L2Bandwidth %v must be positive", d.L2Bandwidth)
	case d.CorunEfficiency <= 0 || d.CorunEfficiency > 1:
		return fmt.Errorf("memsys: CorunEfficiency %v outside (0,1]", d.CorunEfficiency)
	}
	return nil
}

// EffectivePeak returns the bus ceiling for sequential streams:
// PeakBandwidth * StreamEfficiency.
func (d DRAM) EffectivePeak() float64 { return d.PeakBandwidth * d.StreamEfficiency }

// StreamCeiling returns the DRAM bandwidth attainable by a streaming kernel
// occupying sms SMs (Fig. 1): linear up to the knee, flat after. A mild
// concavity is applied near the knee so the measured curve is smooth rather
// than piecewise-sharp, matching the published plot.
func (d DRAM) StreamCeiling(sms int) float64 {
	if sms <= 0 {
		return 0
	}
	x := float64(sms) / float64(d.KneeSMs)
	if x >= 1 {
		return d.EffectivePeak()
	}
	// Concave ramp: slightly superlinear fill-in near the knee.
	frac := x * (1.0 + 0.10*(1.0-x)) // ≤ 1.0 for x in [0,1]
	if frac > 1 {
		frac = 1
	}
	return d.EffectivePeak() * frac
}

// RunEfficiency maps the mean sequential run length of a kernel's first-touch
// access stream (bytes) to a bandwidth efficiency in
// [MinRunEfficiency, 1]. Longer runs keep DRAM rows open.
func (d DRAM) RunEfficiency(meanRunBytes float64) float64 {
	if meanRunBytes <= 64 {
		return d.MinRunEfficiency
	}
	if meanRunBytes >= d.FullRunBytes {
		return 1
	}
	// Log-linear interpolation between one line and FullRunBytes: doubling
	// the run length closes a constant fraction of the gap.
	span := logRatio(d.FullRunBytes / 64)
	pos := logRatio(meanRunBytes / 64)
	return d.MinRunEfficiency + (1-d.MinRunEfficiency)*pos/span
}

func logRatio(x float64) float64 {
	// log2 via successive halving; avoids importing math for one call site
	// is silly — use a simple series-free approach.
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	// linear interpolation of the fractional bit
	return n + (x - 1)
}

// Arbitrate shares the bus among co-running kernels. demands[i] is kernel
// i's unconstrained DRAM demand in bytes/second (already capped by its own
// StreamCeiling and, for sharers, by CorunEfficiency). If the total exceeds
// the shared-bus ceiling — which itself shrinks by CorunEfficiency when
// more than one kernel demands bandwidth — each kernel receives a
// proportional share; GDDR controllers are approximately fair under
// saturation. The returned grants sum to at most the ceiling.
func (d DRAM) Arbitrate(demands []float64) []float64 {
	return d.ArbitrateInto(make([]float64, len(demands)), demands)
}

// ArbitrateInto is Arbitrate writing the grants into grants, which must be at
// least as long as demands and must not alias it; it returns
// grants[:len(demands)]. For callers that arbitrate on a hot path and reuse
// the buffer.
func (d DRAM) ArbitrateInto(grants, demands []float64) []float64 {
	grants = grants[:len(demands)]
	total := 0.0
	demanders := 0
	for _, dm := range demands {
		if dm < 0 {
			dm = 0
		}
		if dm > 0 {
			demanders++
		}
		total += dm
	}
	ceiling := d.EffectivePeak()
	if demanders > 1 {
		ceiling *= d.corunEff()
	}
	if total <= ceiling || total == 0 {
		copy(grants, demands)
		for i, g := range grants {
			if g < 0 {
				grants[i] = 0
			}
		}
		return grants
	}
	scale := ceiling / total
	for i, dm := range demands {
		if dm < 0 {
			dm = 0
		}
		grants[i] = dm * scale
	}
	return grants
}

func (d DRAM) corunEff() float64 {
	if d.CorunEfficiency <= 0 {
		return 1
	}
	return d.CorunEfficiency
}

// CorunEff returns the corun bandwidth-efficiency factor (1 when unset).
func (d DRAM) CorunEff() float64 { return d.corunEff() }

// L2Ceiling returns the aggregate L2 bandwidth available to a kernel
// occupying sms of totalSMs SMs. L2 slices are shared, but a kernel's reach
// into them scales with its SM share.
func (d DRAM) L2Ceiling(sms, totalSMs int) float64 {
	if sms <= 0 || totalSMs <= 0 {
		return 0
	}
	if sms > totalSMs {
		sms = totalSMs
	}
	return d.L2Bandwidth * float64(sms) / float64(totalSMs)
}

// PCIe models the host-device interconnect.
type PCIe struct {
	// Bandwidth is effective bytes/second (≈12.5 GB/s for PCIe 3.0 x16
	// after protocol overhead).
	Bandwidth float64
	// Latency is the fixed per-transfer setup cost in seconds.
	Latency float64
}

// TransferSeconds returns the time to move n bytes across the link.
func (p PCIe) TransferSeconds(n int64) float64 {
	if n <= 0 {
		return p.Latency
	}
	return p.Latency + float64(n)/p.Bandwidth
}
