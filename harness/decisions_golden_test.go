package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/workloads"
)

var updateDecisions = flag.Bool("update", false, "rewrite testdata/slate_decisions.txt")

// TestSlateDecisionsGolden pins the scheduler's decision sequence, not just
// the times it produces: one line per Slate cell at seed 1 and a 1 s loop —
// the cell's name, its decision count and the sha256 of its %+v decision
// log. The cells are the default scheduler on all 15 Fig. 7 pairs, every
// ablation variant on its pairs, and every triple under 3-way sharing. Only
// an intentional scheduling change or an engine.ModelVersion bump
// regenerates the file (go test ./harness -run SlateDecisionsGolden
// -update).
func TestSlateDecisionsGolden(t *testing.T) {
	type cell struct {
		name string
		apps []*workloads.App
		mut  mutator
	}
	var cells []cell
	for _, pair := range workloads.Pairs() {
		cells = append(cells, cell{"fig7/" + pair[0].Code + "-" + pair[1].Code, pair[:], nil})
	}
	for _, v := range ablationVariants {
		for _, pc := range ablationPairs {
			apps, err := appsByCode(pc[0], pc[1])
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{"ablation/" + v.name + "/" + pc[0] + "-" + pc[1], apps, v.mut})
		}
	}
	for _, mix := range tripleMixes {
		apps, err := tripleApps(mix)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{"triples/" + strings.Join(mix[:], "-"), apps, threeWay})
	}

	var b strings.Builder
	for _, c := range cells {
		jobs, err := testHarness.jobsFor(c.apps)
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := testHarness.runSlate(jobs, c.mut)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		decisions := s.Decisions()
		fmt.Fprintf(&b, "%s %d %x\n", c.name, len(decisions), sha256.Sum256([]byte(fmt.Sprintf("%+v", decisions))))
	}
	got := b.String()

	path := filepath.Join("testdata", "slate_decisions.txt")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "(missing)"
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("decision log changed:\n got  %s\n want %s", gl[i], w)
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("golden has %d lines, the run %d", len(wl), len(gl))
		}
	}
}
