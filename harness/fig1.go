package harness

import (
	"fmt"

	"slate/internal/engine"
	"slate/workloads"
)

// Fig1Point is one sample of the stream-saturation curve.
type Fig1Point struct {
	SMs          int
	BandwidthGBs float64
}

// Fig1Result reproduces Fig. 1: global memory read bandwidth of the stream
// benchmark versus SM count.
type Fig1Result struct {
	Points []Fig1Point
	// KneeSMs is the first SM count within 2% of the final bandwidth.
	KneeSMs int
}

// Fig1 sweeps the stream kernel over SM counts 1..NumSMs using Slate's
// SM-range binding and reports achieved DRAM bandwidth. Each SM count is
// an independent cell on the worker pool.
func (h *Harness) Fig1() (*Fig1Result, error) {
	spec := workloads.Stream()
	res := &Fig1Result{Points: make([]Fig1Point, h.Dev.NumSMs)}
	err := h.forEachCell(h.Dev.NumSMs, func(i int) error {
		sms := i + 1
		m, err := h.soloRun(spec, engine.LaunchOpts{
			Mode: engine.SlateSched, TaskSize: engine.DefaultTaskSize, SMLow: 0, SMHigh: sms - 1,
		})
		if err != nil {
			return err
		}
		res.Points[i] = Fig1Point{SMs: sms, BandwidthGBs: m.DRAMBW()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	final := res.Points[len(res.Points)-1].BandwidthGBs
	for _, p := range res.Points {
		if p.BandwidthGBs >= 0.98*final {
			res.KneeSMs = p.SMs
			break
		}
	}
	return res, nil
}

// Render prints the curve as a text table with an ASCII sparkline.
func (r *Fig1Result) Render() string {
	rows := make([][]string, len(r.Points))
	max := 0.0
	for _, p := range r.Points {
		if p.BandwidthGBs > max {
			max = p.BandwidthGBs
		}
	}
	for i, p := range r.Points {
		bar := ""
		if max > 0 {
			n := int(40 * p.BandwidthGBs / max)
			for k := 0; k < n; k++ {
				bar += "#"
			}
		}
		rows[i] = []string{fmt.Sprintf("%d", p.SMs), f1(p.BandwidthGBs), bar}
	}
	out := "Fig. 1 — Stream read bandwidth vs SM count (6 GB problem)\n"
	out += table([]string{"SMs", "GB/s", ""}, rows)
	out += fmt.Sprintf("Saturation knee: %d SMs (paper: 9)\n", r.KneeSMs)
	return out
}

// CSV emits sms,bandwidth rows.
func (r *Fig1Result) CSV() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{fmt.Sprintf("%d", p.SMs), f3(p.BandwidthGBs)}
	}
	return csvJoin([]string{"sms", "bandwidth_gbs"}, rows)
}
