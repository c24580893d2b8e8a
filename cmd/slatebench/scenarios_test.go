package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/gpu"
	"slate/internal/profile"
)

// TestScenarios runs every chaos and load scenario at the seeds CI has always
// run them at (each run sweeps the scenario's own consecutive seeds, twice):
// every cell must pass and the compared columns must reproduce.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		sc    *scenario
		seeds []int64
		rows  int // cells per run: a scenario that lost a row is a lost check
	}{
		{faults, []int64{1, 7, 11, 42}, 5},
		{overload, []int64{1, 42}, 2 * 10},
		{crashChaos, []int64{1, 42}, 2 * 9},
		{fleetChaos, []int64{1}, 2 * 3 * 5},
		{rollingChaos, []int64{1}, 2 * 5},
		{fleetLoad(2000), []int64{1}, 2},
	} {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.sc.name, seed), func(t *testing.T) {
				out, err := tc.sc.run(seed)
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if n := strings.Count(out, "PASS\n"); n != tc.rows {
					t.Fatalf("%d PASS rows, want %d:\n%s", n, tc.rows, out)
				}
				if !strings.Contains(out, tc.sc.upheld) || !strings.Contains(out, "double run byte-identical: true") {
					t.Fatalf("render lacks its closing lines:\n%s", out)
				}
			})
		}
	}
}

// The invariant rows keep the names the drivers have always printed.
func TestInvariantRowsKeepTheirNames(t *testing.T) {
	out, err := faults.run(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	at := 0
	for _, name := range []string{"daemon survived (sessions drained)", "buffer registry drained", "spec table drained",
		"same seed, same fault sequence", "same seed, same outcomes"} {
		i := strings.Index(out[at:], "\n"+name)
		if i < 0 {
			t.Fatalf("row %q missing or out of order:\n%s", name, out)
		}
		at += i
	}
}

func TestCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// A name the table does not hold is a usage error, and the message is
	// read off the table — the chaos scenarios and fleetload included.
	if code := run([]string{"-exp", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-exp nosuch exited %d, want 2", code)
	}
	for _, want := range []string{`unknown experiment "nosuch"`, "all|fig1|table1|", "|faults|overload|crashchaos|fleetchaos|rollingchaos|fleetload"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("-exp nosuch: stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	// A chaos scenario by name: its table on stdout, exit 0.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-exp", "overload", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-exp overload exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "both runaways quarantined") || !strings.Contains(stdout.String(), "[overload completed in") {
		t.Fatalf("-exp overload printed:\n%s", stdout.String())
	}
}

// -profiles reads and writes the profile table's one file form: a document in
// the JSON format the flag wrote before is a cold cache, rewritten by the
// same run, and the next run is served from it with the same table.
func TestCLIProfileTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.tbl")
	if err := os.WriteFile(path, []byte("{\n  \"3f2a\": {\n    \"kernel\": \"GS\"\n  }\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	table2 := func(wantLoaded int) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "table2", "-loop", "0.05", "-profiles", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("table2 exited %d: %s", code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{
			fmt.Sprintf("loaded profile table %s (%d entries)\n", path, wantLoaded),
			fmt.Sprintf("saved profile table %s (5 entries)\n", path),
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("table2 output lacks %q:\n%s", want, out)
			}
		}
		return out[strings.Index(out, "saved profile table"):strings.Index(out, "[table2 completed")]
	}
	cold := table2(0)
	st, err := profile.New(gpu.TitanXp(), nil).LoadFile(path)
	if err != nil || st != (profile.LoadStats{Loaded: 5}) {
		t.Fatalf("the saved table loads as %+v (err %v), want 5 clean entries", st, err)
	}
	if warm := table2(5); warm != cold {
		t.Fatalf("table2 from the loaded table differs from the measured one:\n%s\nvs\n%s", warm, cold)
	}
}

// -csv and -svg are written from the result the run computed.
func TestCLIWritesSeriesAndFigure(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig1", "-loop", "0.05", "-csv", dir, "-svg", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("fig1 exited %d: %s", code, stderr.String())
	}
	for name, prefix := range map[string]string{"fig1.csv": "", "fig1.svg": "<svg"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(b) == 0 || !strings.HasPrefix(string(b), prefix) {
			t.Fatalf("%s: %d bytes, err %v, want a file starting %q", name, len(b), err, prefix)
		}
		if !strings.Contains(stdout.String(), "wrote "+filepath.Join(dir, name)) {
			t.Fatalf("stdout does not report %s:\n%s", name, stdout.String())
		}
	}
}
