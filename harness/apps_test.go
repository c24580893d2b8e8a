package harness

import (
	"fmt"
	"math"
	"testing"

	"slate/workloads"
)

// The exported runner is the one Fig. 7 runs: BS+RG sized by JobsFor and run
// by RunJobs reads Fig. 7's BS-RG mean bit for bit under every scheduler, so
// a caller outside the package (examples/pairing, cmd/slaterun) prints the
// figure's numbers. Slate also wins the complementary pair, as in the paper.
func TestRunJobsMatchesFig7(t *testing.T) {
	fig7, err := testHarness.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	var want *Fig7Row
	for i := range fig7.Rows {
		if fig7.Rows[i].Pair == "BS-RG" {
			want = &fig7.Rows[i]
		}
	}
	if want == nil {
		t.Fatal("Fig. 7 has no BS-RG row")
	}
	apps, err := appsByCode("BS", "RG")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := testHarness.JobsFor(apps)
	if err != nil {
		t.Fatal(err)
	}
	var mean [3]float64
	for _, s := range Scheds() {
		rs, decisions, err := testHarness.RunJobs(s, jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, r := range rs {
			if r.Launches == 0 {
				t.Fatalf("%v: app %s never launched", s, r.Code)
			}
		}
		if (s == Slate) != (len(decisions) > 0) {
			t.Fatalf("%v returned %d decisions; only Slate decides", s, len(decisions))
		}
		mean[s] = meanAppSec(rs)
		if mean[s] != want.MeanSec[s] {
			t.Fatalf("%v: RunJobs mean %v (%x), Fig. 7 BS-RG %v (%x)", s,
				mean[s], math.Float64bits(mean[s]), want.MeanSec[s], math.Float64bits(want.MeanSec[s]))
		}
	}
	if mean[Slate] >= mean[MPS] || mean[Slate] >= mean[CUDA] {
		t.Fatalf("ordering wrong on BS-RG: CUDA %.3f MPS %.3f Slate %.3f", mean[CUDA], mean[MPS], mean[Slate])
	}
}

// Each scheduler charges its own overheads: CUDA none, MPS the per-launch
// server round trip, Slate the round trips plus one-time injection.
func TestOverheadFieldsBySched(t *testing.T) {
	gs, err := workloads.ByCode("GS")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := testHarness.JobsFor([]*workloads.App{gs})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Scheds() {
		rs, _, err := testHarness.RunJobs(s, jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		r := rs[0]
		var ok bool
		switch s {
		case CUDA:
			ok = r.CommSec == 0 && r.InjectSec == 0
		case MPS:
			ok = r.CommSec > 0 && r.InjectSec == 0
		case Slate:
			ok = r.CommSec > 0 && r.InjectSec > 0
		}
		if !ok {
			t.Fatalf("%v overheads wrong: comm %v inject %v", s, r.CommSec, r.InjectSec)
		}
	}
}

// TestResultsOnlyLogIsInvisible: a Slate cell that reads only its results
// keeps a one-slot decision ring (resultsOnly). On every Fig. 7 pair that
// cell's results equal, field for field, those of the same cell keeping its
// whole log, and the ring holds the whole log's last decision.
func TestResultsOnlyLogIsInvisible(t *testing.T) {
	for _, pair := range workloads.Pairs() {
		name := pair[0].Code + "-" + pair[1].Code
		jobs, err := testHarness.JobsFor(pair[:])
		if err != nil {
			t.Fatal(err)
		}
		full, fullSched, err := testHarness.runSlate(jobs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ring, ringSched, err := testHarness.runSlate(jobs, resultsOnly)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := fmt.Sprintf("%+v", ring), fmt.Sprintf("%+v", full); got != want {
			t.Errorf("%s: results-only cell\n%s\nfull-log cell\n%s", name, got, want)
		}
		all, last := fullSched.Decisions(), ringSched.Decisions()
		if len(all) == 0 || len(last) != 1 || last[0] != all[len(all)-1] {
			t.Errorf("%s: ring holds %+v; the full log's %d decisions end %+v", name, last, len(all), all[len(all)-1:])
		}
	}
}
