package profile

import (
	"os"
	"path/filepath"
	"testing"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/policy"
)

func testSpec(name string, blocks int, flops, bytes float64) *kern.Spec {
	return &kern.Spec{
		Name:            name,
		Grid:            kern.D1(blocks),
		BlockDim:        kern.D1(256),
		FLOPsPerBlock:   flops,
		InstrPerBlock:   1e5,
		L2BytesPerBlock: bytes,
		ComputeEff:      0.5,
		MemMLP:          8,
	}
}

func newProfiler() *Profiler {
	dev := device.TitanXp()
	return New(dev, &engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1})
}

func TestProfileComputeBoundKernel(t *testing.T) {
	p := newProfiler()
	pr, err := p.Get(testSpec("cb", 2400, 1e8, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	if pr.GFLOPS < 5000 {
		t.Errorf("compute kernel GFLOPS = %.0f, want thousands", pr.GFLOPS)
	}
	if pr.Class != policy.HC {
		t.Errorf("class = %v, want H_C", pr.Class)
	}
	// Compute-bound kernels scale with SMs: 10 SMs ≈ 1/3 speed.
	if pr.Speed10 < 0.25 || pr.Speed10 > 0.45 {
		t.Errorf("Speed10 = %.2f, want ≈1/3", pr.Speed10)
	}
	// Slate's injected-instruction overhead (~3%) shows in the restricted
	// run, so the extrapolated full-device speed sits just below 1.
	if got := pr.SpeedAt(30); got < 0.95 || got > 1 {
		t.Errorf("SpeedAt(30) = %v, want ≈1", got)
	}
	if pr.SpeedAt(100) != 1 {
		t.Errorf("SpeedAt(100) = %v, want capped 1", pr.SpeedAt(100))
	}
	if pr.SpeedAt(0) != 0 {
		t.Errorf("SpeedAt(0) = %v, want 0", pr.SpeedAt(0))
	}
}

func TestProfileMemoryBoundKernel(t *testing.T) {
	p := newProfiler()
	pr, err := p.Get(testSpec("mb", 2400, 1e5, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Class != policy.HM {
		t.Errorf("class = %v, want H_M (BW %.0f)", pr.Class, pr.AccessBW)
	}
	// Memory-bound kernels keep full speed at 10 SMs (past the knee).
	if pr.Speed10 < 0.9 {
		t.Errorf("Speed10 = %.2f, memory-bound kernel should not slow at 10 SMs", pr.Speed10)
	}
	if pr.StallMem < 0.2 {
		t.Errorf("StallMem = %.2f, want substantial throttling", pr.StallMem)
	}
}

func TestGetCaches(t *testing.T) {
	p := newProfiler()
	spec := testSpec("once", 240, 1e7, 1e4)
	a, err := p.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get re-measured instead of using the table")
	}
	if p.Len() != 1 {
		t.Fatalf("table has %d entries, want 1", p.Len())
	}
	if _, ok := lookup(p, "once"); !ok {
		t.Fatal("Lookup failed for cached profile")
	}
	if _, ok := lookup(p, "never"); ok {
		t.Fatal("Lookup invented a profile")
	}
}

// A loaded table serves the numbers that were measured, not just the names.
func TestSaveLoadRoundTrip(t *testing.T) {
	p, path := savedTable(t, "k1", "k2")
	fresh := newProfiler()
	if _, err := fresh.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("loaded %d profiles, want 2", fresh.Len())
	}
	for _, name := range []string{"k1", "k2"} {
		orig, _ := lookup(p, name)
		got, ok := lookup(fresh, name)
		if !ok || *got != *orig {
			t.Fatalf("round trip mangled profile %s: %+v vs %+v", name, got, orig)
		}
	}
}

// The table is a cache: a file that is not a framed table — garbage, or the
// JSON document -profiles wrote before the file form — loads nothing, fails
// nothing and quarantines nothing; the next save replaces it.
func TestLoadCorrupt(t *testing.T) {
	for _, content := range []string{"{nope", "{}\n", "{\n  \"3f2a\": {\n    \"kernel\": \"GS\",\n    \"gflops\": 12.5\n  }\n}\n"} {
		path := filepath.Join(t.TempDir(), "profiles.json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		p := newProfiler()
		st, err := p.LoadFile(path)
		if err != nil {
			t.Fatalf("%q: %v", content, err)
		}
		if want := (LoadStats{TruncatedTail: len(content)}); st != want || p.Len() != 0 {
			t.Fatalf("%q: stats %+v with %d entries, want %+v and an empty table", content, st, p.Len(), want)
		}
		if _, err := os.Stat(path + ".bad"); !os.IsNotExist(err) {
			t.Fatalf("%q: a foreign file left a .bad sidecar", content)
		}
	}
}

func TestProfileInvalidKernel(t *testing.T) {
	p := newProfiler()
	bad := testSpec("bad", 100, 1e6, 1e4)
	bad.ComputeEff = 0
	if _, err := p.Get(bad); err == nil {
		t.Fatal("invalid kernel profiled without error")
	}
}

// lookup returns a cached profile by kernel name without measuring. Names
// are labels rather than identities (the cache is keyed by content), so
// this scans the table.
func lookup(p *Profiler, name string) (*Profile, bool) {
	var found *Profile
	p.table.Range(func(_ string, pr *Profile) bool {
		if pr.Kernel == name {
			found = pr
		}
		return found == nil
	})
	return found, found != nil
}
