package harness

import (
	"fmt"
	"math"
	"strings"
)

// SVG renders Fig. 1 as a line chart.
func (r *Fig1Result) SVG() string {
	ticks := make([]string, len(r.Points))
	vals := make([]float64, len(r.Points))
	for i, p := range r.Points {
		ticks[i] = fmt.Sprintf("%d", p.SMs)
		vals[i] = p.BandwidthGBs
	}
	c := &chart{
		title:  "Fig. 1 — Stream read bandwidth vs SM count",
		xLabel: "SMs", yLabel: "GB/s",
		xTicks: ticks,
		series: []series{{name: "stream (6 GB)", values: vals}},
	}
	return c.line()
}

// SVG renders Fig. 5 as one line per application over the task sizes,
// normalized to task size 10.
func (r *Fig5Result) SVG() string {
	ticks := make([]string, len(r.TaskSizes))
	for i, ts := range r.TaskSizes {
		ticks[i] = fmt.Sprintf("%d", ts)
	}
	base := indexOf(r.TaskSizes, 10)
	var ss []series
	for _, row := range r.Rows {
		vals := make([]float64, len(row.Seconds))
		for i, s := range row.Seconds {
			if base >= 0 && row.Seconds[base] > 0 {
				vals[i] = s / row.Seconds[base]
			} else {
				vals[i] = s
			}
		}
		ss = append(ss, series{name: row.Code, values: vals})
	}
	c := &chart{
		title:  "Fig. 5 — Kernel time vs task size (normalized to 10)",
		xLabel: "SLATE_ITERS", yLabel: "normalized time",
		xTicks: ticks, series: ss,
	}
	return c.line()
}

// SVG renders Fig. 6 as grouped bars of application time per scheduler.
func (r *Fig6Result) SVG() string {
	order := []string{}
	perSched := map[Sched][]float64{}
	for _, row := range r.Rows {
		if row.Sched == CUDA {
			order = append(order, row.Code)
		}
	}
	for _, s := range Scheds() {
		for _, row := range r.Rows {
			if row.Sched == s {
				perSched[s] = append(perSched[s], row.AppSec)
			}
		}
	}
	var ss []series
	for _, s := range Scheds() {
		ss = append(ss, series{name: s.String(), values: perSched[s]})
	}
	c := &chart{
		title:  "Fig. 6 — Solo application execution time",
		xLabel: "application", yLabel: "seconds",
		xTicks: order, series: ss,
	}
	return c.bars()
}

// SVG renders Fig. 7 as grouped bars of normalized time per pairing.
func (r *Fig7Result) SVG() string {
	ticks := make([]string, len(r.Rows))
	var cuda, mps, slate []float64
	for i, row := range r.Rows {
		ticks[i] = row.Pair
		cuda = append(cuda, row.Norm[CUDA])
		mps = append(mps, row.Norm[MPS])
		slate = append(slate, row.Norm[Slate])
	}
	c := &chart{
		title:  "Fig. 7 — Normalized application time per pairing (CUDA = 1)",
		xLabel: "pairing", yLabel: "normalized time",
		xTicks: ticks,
		series: []series{
			{name: "CUDA", values: cuda},
			{name: "MPS", values: mps},
			{name: "Slate", values: slate},
		},
		width: 980,
	}
	return c.bars()
}

// chart is one figure, rendered as a standalone SVG document with only the
// standard library: a line per series (Figs. 1 and 5) or grouped bars, one
// group per x tick (Figs. 6 and 7).
type chart struct {
	title, xLabel, yLabel string
	xTicks                []string // one per x position or bar group
	series                []series
	width                 int // canvas width in pixels; 0 means 720
}

// series is one named line or bar set.
type series struct {
	name   string
	values []float64
}

// palette holds distinguishable stroke/fill colors.
var palette = []string{"#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c"}

const (
	chartHeight  = 400
	marginLeft   = 64
	marginRight  = 16
	marginTop    = 36
	marginBottom = 48
)

// niceCeil rounds up to a pleasant axis bound (1/2/5 × 10^k).
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

// frame emits the SVG header, title, axes, y grid and legend around the
// marks body draws into the pw×ph plot area scaled to yMax.
func (c *chart) frame(body func(b *strings.Builder, pw, ph int, yMax float64)) string {
	w, h := c.width, chartHeight
	if w == 0 {
		w = 720
	}
	pw, ph := w-marginLeft-marginRight, h-marginTop-marginBottom
	top := 1e-9
	for _, s := range c.series {
		for _, v := range s.values {
			top = max(top, v)
		}
	}
	yMax := niceCeil(top)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="20" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n", w/2, esc(c.title))
	// Y grid + labels (5 divisions).
	for i := 0; i <= 5; i++ {
		y := marginTop + ph - i*ph/5
		val := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", yMax*float64(i)/5), "0"), ".")
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n", marginLeft, y, marginLeft+pw, y)
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n", marginLeft-6, y+4, val)
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginLeft, marginTop, marginLeft, marginTop+ph)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginLeft, marginTop+ph, marginLeft+pw, marginTop+ph)
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n", marginLeft+pw/2, h-8, esc(c.xLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n", marginTop+ph/2, marginTop+ph/2, esc(c.yLabel))
	body(&b, pw, ph, yMax)
	// Legend.
	lx := marginLeft + 10
	for i, s := range c.series {
		ly := marginTop + 8 + i*16
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, ly, palette[i%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+14, ly+9, esc(s.name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// line renders one polyline per series over the evenly spaced x ticks.
func (c *chart) line() string {
	return c.frame(func(b *strings.Builder, pw, ph int, yMax float64) {
		n := len(c.xTicks)
		for i, s := range c.series {
			var pts []string
			for j, v := range s.values {
				pts = append(pts, fmt.Sprintf("%d,%d", marginLeft+j*pw/(n-1), marginTop+ph-int(v/yMax*float64(ph))))
			}
			fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
				strings.Join(pts, " "), palette[i%len(palette)])
		}
		c.tickLabels(b, ph, func(j int) int { return marginLeft + j*pw/(n-1) })
	})
}

// bars renders grouped bars: one group per x tick, one bar per series.
func (c *chart) bars() string {
	return c.frame(func(b *strings.Builder, pw, ph int, yMax float64) {
		n := len(c.xTicks)
		groupW := pw / n
		barW := groupW / (len(c.series) + 1)
		for i, s := range c.series {
			for j, v := range s.values {
				bh := int(v / yMax * float64(ph))
				fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
					marginLeft+j*groupW+(i+1)*barW-barW/2, marginTop+ph-bh, barW, bh, palette[i%len(palette)])
			}
		}
		c.tickLabels(b, ph, func(j int) int { return marginLeft + j*pw/n + pw/n/2 })
	})
}

// tickLabels writes the x tick labels at x(j), thinned to at most 16.
func (c *chart) tickLabels(b *strings.Builder, ph int, x func(j int) int) {
	step := (len(c.xTicks) + 15) / 16
	for j := 0; j < len(c.xTicks); j += step {
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n",
			x(j), marginTop+ph+16, esc(c.xTicks[j]))
	}
}

var esc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace
