package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/internal/trace"
)

// slaterun runs the command and returns its exit status and stdout.
func slaterun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("slaterun %s: exit %d, stderr: %s", strings.Join(args, " "), code, stderr.String())
	}
	return code, stdout.String()
}

// rows returns the result table's rows keyed by app code.
func rows(out string) map[string][]string {
	m := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[0] != "app" {
			m[f[0]] = f
		}
	}
	return m
}

func TestEverySchedPrintsOneRowPerApp(t *testing.T) {
	for _, s := range []string{"cuda", "mps", "slate"} {
		code, out := slaterun(t, "-sched", s, "-apps", "BS,RG", "-loop", "0.2")
		if code != 0 {
			t.Fatalf("-sched %s: exit %d", s, code)
		}
		if !strings.HasPrefix(out, "scheduler: "+s+"\n") {
			t.Fatalf("-sched %s: output starts %q", s, out)
		}
		got := rows(out)
		if len(got) != 2 || got["BS"] == nil || got["RG"] == nil {
			t.Fatalf("-sched %s: want one row each for BS and RG, got:\n%s", s, out)
		}
	}
}

// Slate's one-time injection+compile cost is scaled to the loop, as every
// harness experiment scales it: 0.450 s at the paper's 30 s loop is 0.030 s
// at 2 s.
func TestSlateInjectScaledToLoop(t *testing.T) {
	code, out := slaterun(t, "-sched", "slate", "-apps", "BS,RG", "-loop", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for app, f := range rows(out) {
		if f[5] != "0.030" {
			t.Fatalf("%s inject(s) = %s, want 0.030:\n%s", app, f[5], out)
		}
	}
}

func TestTraceWritesReadableJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.jsonl")
	code, out := slaterun(t, "-sched", "slate", "-apps", "GS,RG", "-loop", "0.2", "-trace", path, "-gantt")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "SM occupancy timeline") || !strings.Contains(out, "trace: ") {
		t.Fatalf("missing gantt or trace summary:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := log.Summary()
	if sum["corun"]+sum["solo"] == 0 {
		t.Fatalf("trace holds no scheduling decision: %v", sum)
	}
	if sum["app-start"] != 2 || sum["app-end"] != 2 {
		t.Fatalf("trace should mark both apps' start and end: %v", sum)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-sched", "cuda", "-gantt"},
		{"-sched", "mps", "-trace", filepath.Join(t.TempDir(), "x.jsonl")},
		{"-sched", "fifo"},
		{"-apps", "BS,XX"},
		{"-nosuchflag"},
	} {
		if code, _ := slaterun(t, args...); code != 2 {
			t.Fatalf("slaterun %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}
