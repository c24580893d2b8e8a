package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"slate/internal/run"
	"slate/internal/sched"
)

func sample() *Log {
	l := &Log{}
	l.AddDecisions([]sched.Decision{
		{At: 2_000_000, Kernel: "GS", Action: "solo", SMLow: 0, SMHigh: 29},
		{At: 5_000_000, Kernel: "RG", Action: "corun", SMLow: 22, SMHigh: 29, Partner: "GS"},
		{At: 9_000_000, Kernel: "GS", Action: "grow", SMLow: 0, SMHigh: 29},
	})
	l.AddResults([]run.Result{
		{Code: "GS", Start: 1_000_000, End: 40_000_000, KernelSec: 0.03, Launches: 2},
	})
	return l
}

func TestEventsSortedByTime(t *testing.T) {
	l := sample()
	es := l.Events()
	if len(es) != 5 {
		t.Fatalf("events = %d, want 5", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].TMs < es[i-1].TMs {
			t.Fatalf("events out of order at %d", i)
		}
	}
	if es[0].Kind != "app-start" || es[len(es)-1].Kind != "app-end" {
		t.Fatalf("boundary events wrong: %v ... %v", es[0].Kind, es[len(es)-1].Kind)
	}
}

func TestDecisionConversion(t *testing.T) {
	l := sample()
	var corun *Event
	for _, e := range l.Events() {
		if e.Kind == "corun" {
			e := e
			corun = &e
		}
	}
	if corun == nil {
		t.Fatal("corun event missing")
	}
	if corun.Subject != "RG" || corun.Partner != "GS" || corun.SMLow != 22 || corun.SMHigh != 29 {
		t.Fatalf("corun event = %+v", corun)
	}
	if corun.TMs != 5.0 {
		t.Fatalf("timestamp = %v ms, want 5", corun.TMs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("JSONL lines = %d, want 5", lines)
	}
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), l.Len())
	}
	a, b := l.Events(), back.Events()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReadJSONLCorrupt(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt timeline accepted")
	}
}

func TestSummary(t *testing.T) {
	s := sample().Summary()
	if s["solo"] != 1 || s["corun"] != 1 || s["grow"] != 1 || s["app-start"] != 1 || s["app-end"] != 1 {
		t.Fatalf("summary = %v", s)
	}
}

func TestGantt(t *testing.T) {
	l := &Log{}
	l.AddDecisions([]sched.Decision{
		{At: 0, Kernel: "GS", Action: "solo", SMLow: 0, SMHigh: 29},
		{At: 10_000_000, Kernel: "RG", Action: "corun", SMLow: 22, SMHigh: 29, Partner: "GS"},
		{At: 10_000_000, Kernel: "GS", Action: "grow", SMLow: 0, SMHigh: 21},
		{At: 20_000_000, Kernel: "RG", Action: "complete", SMLow: 22, SMHigh: 29},
		{At: 20_000_000, Kernel: "GS", Action: "grow", SMLow: 0, SMHigh: 29},
		{At: 40_000_000, Kernel: "GS", Action: "complete", SMLow: 0, SMHigh: 29},
	})
	out := l.Gantt(40, 30)
	if !strings.Contains(out, "GS") || !strings.Contains(out, "RG") {
		t.Fatalf("gantt missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // GS row, RG row, axis
		t.Fatalf("gantt rows = %d:\n%s", len(lines), out)
	}
	// GS row is busy from the start; RG row starts blank then fills.
	gsRow, rgRow := lines[0], lines[1]
	if strings.Contains(gsRow[9:20], " ") {
		t.Errorf("GS should be active early:\n%s", out)
	}
	if !strings.HasPrefix(rgRow[9:], " ") {
		t.Errorf("RG should be idle at t=0:\n%s", out)
	}
	if !strings.Contains(out, "ms") {
		t.Error("axis label missing")
	}
}

func TestGanttEmpty(t *testing.T) {
	l := &Log{}
	if !strings.Contains(l.Gantt(40, 30), "empty") {
		t.Fatal("empty gantt should say so")
	}
}

func TestUtilization(t *testing.T) {
	l := &Log{}
	l.AddDecisions([]sched.Decision{
		// 10ms solo on half the device, then 10ms on the whole device.
		{At: 0, Kernel: "K", Action: "solo", SMLow: 0, SMHigh: 14},
		{At: 10_000_000, Kernel: "K", Action: "grow", SMLow: 0, SMHigh: 29},
		{At: 20_000_000, Kernel: "K", Action: "complete", SMLow: 0, SMHigh: 29},
	})
	got := l.Utilization(30)
	want := (15.0*10 + 30.0*10) / (30.0 * 20)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
	if (&Log{}).Utilization(30) != 0 {
		t.Fatal("empty log utilization should be 0")
	}
}

func TestUtilizationCorunCapsAtDevice(t *testing.T) {
	l := &Log{}
	l.AddDecisions([]sched.Decision{
		{At: 0, Kernel: "A", Action: "solo", SMLow: 0, SMHigh: 29},
		{At: 0, Kernel: "B", Action: "corun", SMLow: 0, SMHigh: 29}, // pathological overlap
		{At: 10_000_000, Kernel: "A", Action: "complete"},
		{At: 10_000_000, Kernel: "B", Action: "complete"},
	})
	if u := l.Utilization(30); u > 1.0001 {
		t.Fatalf("utilization %v exceeds 1; device capacity not clamped", u)
	}
}

// readJSONL parses a timeline written by WriteJSONL.
func readJSONL(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	l := &Log{}
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: corrupt timeline: %w", err)
		}
		l.Append(e)
	}
}
