package harness

import (
	"strings"
	"testing"

	"slate/internal/device"
	"slate/workloads"
)

func v100() *device.Device { return device.TeslaV100() }

// One harness per test binary: the trace model and solo cache dominate
// setup cost.
var testHarness = New(Config{LoopSeconds: 1.0})

func TestFig1ShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 30 {
		t.Fatalf("points = %d, want 30", len(r.Points))
	}
	// Monotone nondecreasing, saturating at the paper's 9-SM knee.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].BandwidthGBs < r.Points[i-1].BandwidthGBs-1 {
			t.Fatalf("bandwidth decreased at %d SMs", r.Points[i].SMs)
		}
	}
	if r.KneeSMs < 8 || r.KneeSMs > 10 {
		t.Errorf("knee at %d SMs, paper: 9", r.KneeSMs)
	}
	final := r.Points[29].BandwidthGBs
	if final < 400 || final > 500 {
		t.Errorf("saturated bandwidth %.0f GB/s, want near 480", final)
	}
	if !strings.Contains(r.Render(), "Saturation knee") {
		t.Error("render missing knee annotation")
	}
	if !strings.Contains(r.CSV(), "sms,bandwidth_gbs") {
		t.Error("CSV header missing")
	}
}

func TestTableIIClassesMatchPaper(t *testing.T) {
	r, err := testHarness.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	wantClass := map[string]string{"BS": "M_M", "GS": "M_M", "MM": "M_M", "RG": "L_C", "TR": "H_M"}
	for _, row := range r.Rows {
		if got := row.Class.String(); got != wantClass[row.Code] {
			t.Errorf("%s classified %s, want %s", row.Code, got, wantClass[row.Code])
		}
		// Within 20% of the published profile (TR's bandwidth is the
		// documented exception: nvprof sector counting exceeds pin BW).
		if row.Code != "TR" {
			if rel := (row.GFLOPS - row.PaperGFLOPS) / (row.PaperGFLOPS + 1); rel > 0.2 || rel < -0.2 {
				t.Errorf("%s GFLOPS %.1f vs paper %.1f", row.Code, row.GFLOPS, row.PaperGFLOPS)
			}
		}
	}
	if !strings.Contains(r.Render(), "Table II") {
		t.Error("render missing title")
	}
}

func TestTableIIIShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	bwGain := r.Slate.AccessBW()/r.CUDA.AccessBW() - 1
	if bwGain < 0.2 || bwGain > 0.55 {
		t.Errorf("GS bandwidth gain %.0f%%, paper +38%%", bwGain*100)
	}
	if r.Slate.StallMemThrottle > 0.1 || r.CUDA.StallMemThrottle < 0.15 {
		t.Errorf("throttle shape wrong: CUDA %.2f Slate %.2f (paper 26.1%% → 0)",
			r.CUDA.StallMemThrottle, r.Slate.StallMemThrottle)
	}
	if !strings.Contains(r.Render(), "Table III") {
		t.Error("render missing title")
	}
}

func TestTableIVShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	// Slate must substantially beat MPS on BS-RG (paper: +30.55%).
	if r.ThroughputGain < 0.15 || r.ThroughputGain > 0.55 {
		t.Errorf("BS-RG throughput gain %.1f%%, paper 30.55%%", r.ThroughputGain*100)
	}
	// IPC rises sharply under corun (paper +71%).
	if ipcGain := r.IPC[1]/r.IPC[0] - 1; ipcGain < 0.2 {
		t.Errorf("IPC gain %.0f%%, paper +71%%", ipcGain*100)
	}
	// L2 throughput slightly higher under Slate (paper +3.84%).
	if r.L2ThroughputGBs[1] <= r.L2ThroughputGBs[0] {
		t.Errorf("L2 throughput MPS %.0f ≥ Slate %.0f, paper shows Slate higher",
			r.L2ThroughputGBs[0], r.L2ThroughputGBs[1])
	}
	if !strings.Contains(r.Render(), "Table IV") {
		t.Error("render missing title")
	}
}

func TestTableVRendersInventory(t *testing.T) {
	r, err := testHarness.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("inventory rows = %d, want 5", len(r.Rows))
	}
	out := r.Render()
	for _, want := range []string{"Atomic ops", "injection", "communication", "profiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("inventory missing %q", want)
		}
	}
}

func TestTableIRenderMatchesPolicy(t *testing.T) {
	out := tableIRender()
	if !strings.Contains(out, "L_C") || !strings.Contains(out, "corun") || !strings.Contains(out, "solo") {
		t.Fatalf("Table I render incomplete:\n%s", out)
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	byCode := map[string]Fig5Row{}
	for _, row := range r.Rows {
		byCode[row.Code] = row
	}
	t10 := indexOf(r.TaskSizes, 10)
	t1 := indexOf(r.TaskSizes, 1)
	// GS: task 1 roughly doubles kernel time vs task 10 (atomic
	// serialization; the paper's headline Fig. 5 effect).
	gs := byCode["GS"]
	if ratio := gs.Seconds[t1] / gs.Seconds[t10]; ratio < 1.5 || ratio > 2.8 {
		t.Errorf("GS task1/task10 = %.2f, paper ≈2", ratio)
	}
	// BS: task 1 beats task 10 (load imbalance at 10).
	bs := byCode["BS"]
	if bs.Seconds[t1] >= bs.Seconds[t10] {
		t.Errorf("BS task1 (%.3fms) should beat task10 (%.3fms)",
			bs.Seconds[t1]*1e3, bs.Seconds[t10]*1e3)
	}
	if !strings.Contains(r.CSV(), "task_size") {
		t.Error("CSV header missing")
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 { // 5 apps × 3 schedulers
		t.Fatalf("rows = %d, want 15", len(r.Rows))
	}
	app := map[string]map[Sched]Fig6Row{}
	for _, row := range r.Rows {
		if app[row.Code] == nil {
			app[row.Code] = map[Sched]Fig6Row{}
		}
		app[row.Code][row.Sched] = row
	}
	// GS is Slate's best solo case: ≈20-28% faster than CUDA (paper 28%).
	gsGain := 1 - app["GS"][Slate].AppSec/app["GS"][CUDA].AppSec
	if gsGain < 0.10 || gsGain > 0.35 {
		t.Errorf("GS solo Slate gain %.0f%%, paper ≈28%%", gsGain*100)
	}
	// In the worst case Slate is never drastically slower than CUDA.
	for code, rows := range app {
		if ratio := rows[Slate].AppSec / rows[CUDA].AppSec; ratio > 1.12 {
			t.Errorf("%s Slate solo %.2f× CUDA; worst case should be ≈1", code, ratio)
		}
		// MPS has a slightly larger application time than CUDA (§V-D2).
		if rows[MPS].AppSec < rows[CUDA].AppSec*0.999 {
			t.Errorf("%s MPS solo faster than CUDA; should be slightly slower", code)
		}
	}
	// Overhead fractions in the measured ballparks.
	if cf := r.CommFraction(); cf < 0.002 || cf > 0.08 {
		t.Errorf("comm fraction %.1f%%, paper ≈4%%", cf*100)
	}
	if inf := r.InjectFraction(); inf < 0.002 || inf > 0.05 {
		t.Errorf("inject fraction %.1f%%, paper ≈1.5%%", inf*100)
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	r, err := testHarness.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("pairings = %d, want 15", len(r.Rows))
	}
	// Headline: Slate beats MPS by ≈11% on average (we land 10-16%).
	if r.SlateVsMPS < 0.06 || r.SlateVsMPS > 0.20 {
		t.Errorf("Slate vs MPS mean %.1f%%, paper +11%%", r.SlateVsMPS*100)
	}
	// Best case ≥ +25% (paper: +35% on RG-GS); an RG pairing must win.
	if r.BestGain < 0.25 {
		t.Errorf("best gain %.0f%%, paper +35%%", r.BestGain*100)
	}
	if !strings.Contains(r.BestPair, "RG") {
		t.Errorf("best pair %s does not involve RG; paper's corun wins are all RG pairings", r.BestPair)
	}
	// Worst case is a small BS-imbalance regression (paper: MM-BS -2%).
	if r.WorstGain < -0.10 {
		t.Errorf("worst gain %.0f%%, paper -2%%", r.WorstGain*100)
	}
	if !strings.Contains(r.WorstPair, "BS") {
		t.Errorf("worst pair %s does not involve BS; the regression mechanism is BS's task-size imbalance", r.WorstPair)
	}
	// Every RG pairing coruns and gains vs MPS.
	for _, row := range r.Rows {
		gain := row.MeanSec[MPS]/row.MeanSec[Slate] - 1
		if strings.Contains(row.Pair, "RG") && gain < 0.05 {
			t.Errorf("RG pairing %s gains only %.1f%%; all RG pairings corun", row.Pair, gain*100)
		}
	}
	if !strings.Contains(r.CSV(), "norm_vs_cuda") {
		t.Error("CSV header missing")
	}
}

// The mechanisms transfer across device models: on a V100 (80 SMs, HBM2,
// knee 18) the same scheduler still beats MPS on the flagship pairing.
func TestCrossDeviceV100(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-device run")
	}
	h := New(Config{LoopSeconds: 0.5, Dev: v100()})
	bs, _ := workloads.ByCode("BS")
	rg, _ := workloads.ByCode("RG")
	apps := []*workloads.App{bs, rg}
	mps, err := h.runApps(MPS, apps)
	if err != nil {
		t.Fatal(err)
	}
	slate, err := h.runApps(Slate, apps)
	if err != nil {
		t.Fatal(err)
	}
	gain := meanAppSec(mps)/meanAppSec(slate) - 1
	if gain < 0.05 {
		t.Fatalf("V100 BS-RG gain %.1f%%; the mechanism should transfer", gain*100)
	}
	// Fig. 1 on the V100 saturates at its own knee.
	f1, err := h.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if f1.KneeSMs < 16 || f1.KneeSMs > 20 {
		t.Fatalf("V100 knee = %d SMs, want ≈18", f1.KneeSMs)
	}
}
