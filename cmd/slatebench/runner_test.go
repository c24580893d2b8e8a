package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// fake is a two-cell scenario over two seeds whose legs report what the test
// tells them to. calls counts leg invocations, so a leg can tell the first
// sweep from the second.
func fake(leg func(key string, seed int64, call int) (row, error)) *scenario {
	calls := map[string]int{}
	return &scenario{
		name:  "fake",
		title: "Fake matrix",
		keys:  []string{"site"},
		cols:  []column{{name: "fired"}, {name: "acked", printedOnly: true}},
		seeds: 2,
		cells: func(seed int64) []cell {
			var cells []cell
			for _, key := range []string{"alpha", "beta"} {
				cells = append(cells, cell{key: []string{key}, leg: func() (row, error) {
					id := fmt.Sprintf("%s/%d", key, seed)
					calls[id]++
					return leg(key, seed, calls[id])
				}})
			}
			return cells
		},
		upheld: "all fake cells upheld",
	}
}

func TestRunnerSweepsBothSeedsTwice(t *testing.T) {
	var ran []string
	out, err := fake(func(key string, seed int64, call int) (row, error) {
		ran = append(ran, fmt.Sprintf("%s/%d#%d", key, seed, call))
		return row{vals: []any{true, 3}}, nil
	}).run(7)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	want := "alpha/7#1 beta/7#1 alpha/8#1 beta/8#1 alpha/7#2 beta/7#2 alpha/8#2 beta/8#2"
	if got := strings.Join(ran, " "); got != want {
		t.Fatalf("legs ran as\n  %s\nwant seeds N and N+1, every cell, twice:\n  %s", got, want)
	}
	for _, line := range []string{"Fake matrix", "site   seed  fired  acked*  verdict", "alpha  7     true   3       PASS",
		"beta   8     true   3       PASS", "all fake cells upheld", "double run byte-identical: true"} {
		if !strings.Contains(out, line) {
			t.Errorf("render lacks %q:\n%s", line, out)
		}
	}
}

func TestRunnerComparesOnlyTheComparedColumns(t *testing.T) {
	// A printed-only column may differ between the two runs.
	out, err := fake(func(key string, seed int64, call int) (row, error) {
		return row{vals: []any{true, call}}, nil
	}).run(1)
	if err != nil {
		t.Fatalf("a differing printed-only column failed the run: %v\n%s", err, out)
	}

	// A compared column may not: the run fails, names the cell, and shows
	// both renders.
	out, err = fake(func(key string, seed int64, call int) (row, error) {
		return row{vals: []any{key != "beta" || seed != 2 || call == 1, 0}}, nil
	}).run(1)
	if err == nil || !strings.Contains(err.Error(), "double run not byte-identical") || !strings.Contains(err.Error(), "beta seed=2") {
		t.Fatalf("differing compared column: err = %v, want the double-run failure naming beta seed=2", err)
	}
	if !strings.Contains(out, "beta   2     true") || !strings.Contains(out, "--- second run differed ---") || !strings.Contains(out, "beta   2     false") {
		t.Fatalf("a failed double run must print both renders:\n%s", out)
	}

	// Detail lines are compared like a column.
	_, err = fake(func(key string, seed int64, call int) (row, error) {
		return row{vals: []any{true, 0}, detail: []string{fmt.Sprint("outcome ", call)}}, nil
	}).run(1)
	if err == nil || !strings.Contains(err.Error(), "alpha seed=1: double run not byte-identical") {
		t.Fatalf("differing detail: err = %v, want the double-run failure naming alpha seed=1", err)
	}
}

func TestRunnerNamesTheFailingCellAndRendersEveryRow(t *testing.T) {
	boom := errors.New("ledger does not balance")
	out, err := fake(func(key string, seed int64, call int) (row, error) {
		switch {
		case key == "beta" && seed == 1:
			return row{vals: []any{true}}, boom // failed before it had the second value
		case key == "alpha" && seed == 2:
			panic("index out of range")
		}
		return row{vals: []any{true, 1}}, nil
	}).run(1)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "beta seed=1: ") {
		t.Fatalf("err = %v, want the first failing cell named beta seed=1 and wrapping the leg's error", err)
	}
	for _, line := range []string{"alpha  1     true   1       PASS", "beta   1     true   -       FAIL: ledger does not balance",
		"alpha  2     -      -       FAIL: leg panicked: index out of range", "beta   2     true   1       PASS"} {
		if !strings.Contains(out, line) {
			t.Errorf("render lacks %q:\n%s", line, out)
		}
	}
	if strings.Contains(out, "upheld") || strings.Contains(out, "byte-identical") {
		t.Errorf("a failed run claims success:\n%s", out)
	}
}

// A failure that only shows in the second sweep still fails the run.
func TestRunnerFailsOnTheSecondRun(t *testing.T) {
	out, err := fake(func(key string, seed int64, call int) (row, error) {
		if key == "alpha" && seed == 2 && call == 2 {
			return row{vals: []any{true, 1}}, errors.New("spec table not drained")
		}
		return row{vals: []any{true, 1}}, nil
	}).run(1)
	if err == nil || !strings.Contains(err.Error(), "second run: alpha seed=2: spec table not drained") {
		t.Fatalf("err = %v, want the second run's failing cell", err)
	}
	if !strings.Contains(out, "FAIL: spec table not drained") {
		t.Fatalf("render of the failing run:\n%s", out)
	}
}
