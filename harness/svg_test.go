package harness

import (
	"strings"
	"testing"
)

func TestFigureSVGs(t *testing.T) {
	f1, err := testHarness.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	svg := f1.SVG()
	if !strings.Contains(svg, "<polyline") || !strings.Contains(svg, "Fig. 1") {
		t.Error("Fig1 SVG incomplete")
	}

	f5, err := testHarness.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	svg = f5.SVG()
	// One polyline per application.
	if got := strings.Count(svg, "<polyline"); got != 5 {
		t.Errorf("Fig5 polylines = %d, want 5", got)
	}

	f6, err := testHarness.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	svg = f6.SVG()
	if !strings.Contains(svg, "Slate") || strings.Count(svg, "<rect") < 15 {
		t.Error("Fig6 SVG missing bars")
	}

	f7, err := testHarness.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	svg = f7.SVG()
	// 15 pairings × 3 schedulers of bars plus legend/background.
	if got := strings.Count(svg, "<rect"); got < 45 {
		t.Errorf("Fig7 rects = %d, want ≥45", got)
	}
	if !strings.Contains(svg, "BS-RG") {
		t.Error("Fig7 tick labels missing")
	}
}

func sampleLine() *chart {
	return &chart{
		title: "bandwidth", xLabel: "SMs", yLabel: "GB/s",
		xTicks: []string{"1", "2", "3", "4"},
		series: []series{{name: "stream", values: []float64{58, 115, 171, 226}}},
	}
}

func TestLineChartWellFormed(t *testing.T) {
	out := sampleLine().line()
	for _, want := range []string{
		"<svg", "</svg>", "<polyline", "bandwidth", "GB/s", "SMs", "stream",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("line SVG missing %q", want)
		}
	}
	if strings.Count(out, "<svg") != 1 || strings.Count(out, "</svg>") != 1 {
		t.Error("malformed document")
	}
}

func TestBarChartWellFormed(t *testing.T) {
	c := &chart{
		title: "pairings", xLabel: "pair", yLabel: "normalized",
		xTicks: []string{"BS-RG", "GS-RG"},
		series: []series{
			{name: "MPS", values: []float64{1.0, 1.0}},
			{name: "Slate", values: []float64{0.72, 0.78}},
		},
	}
	out := c.bars()
	// 4 data bars + 2 legend swatches + background rect.
	if got := strings.Count(out, "<rect"); got != 7 {
		t.Errorf("rect count = %d, want 7", got)
	}
	if !strings.Contains(out, "BS-RG") || !strings.Contains(out, "Slate") {
		t.Error("labels missing")
	}
}

func TestEscaping(t *testing.T) {
	c := sampleLine()
	c.title = `a<b & c>d`
	out := c.line()
	if strings.Contains(out, "a<b") || !strings.Contains(out, "a&lt;b &amp; c&gt;d") {
		t.Error("XML escaping broken")
	}
}

func TestNiceCeil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 1}, {0.7, 1}, {1, 1}, {1.2, 2}, {3.7, 5}, {7, 10}, {482, 500}, {1800, 2000},
	}
	for _, c := range cases {
		if got := niceCeil(c.in); got != c.want {
			t.Errorf("niceCeil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestManyTicksAreThinned(t *testing.T) {
	c := sampleLine()
	c.xTicks = make([]string, 30)
	c.series[0].values = make([]float64, 30)
	for i := range c.xTicks {
		c.xTicks[i] = "t"
		c.series[0].values[i] = float64(i)
	}
	out := c.line()
	// ≤ ~17 tick labels survive thinning (plus axis/legend text).
	if got := strings.Count(out, `>t</text>`); got > 17 {
		t.Errorf("tick labels = %d, want thinned", got)
	}
}
