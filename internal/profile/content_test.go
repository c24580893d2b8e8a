package profile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"slate/internal/engine"
	"slate/internal/ipc"
)

// Renamed instances of one kernel must share a single measurement — the
// cache is keyed by content, not by name.
func TestGetSharesByContent(t *testing.T) {
	p := newProfiler()
	a, err := p.Get(testSpec("base", 240, 1e7, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(testSpec("base@3", 240, 1e7, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical content under two names measured twice")
	}
	if p.Len() != 1 {
		t.Fatalf("table has %d entries, want 1", p.Len())
	}
	// Same name, different content must NOT share.
	c, err := p.Get(testSpec("base", 480, 1e7, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different content under one name shared a profile")
	}
}

func TestGetConcurrentSingleFlight(t *testing.T) {
	p := newProfiler()
	const goroutines = 8
	out := make([]*Profile, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pr, err := p.Get(testSpec("cc", 240, 1e7, 1e4))
			if err != nil {
				t.Error(err)
				return
			}
			out[g] = pr
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if out[g] != out[0] {
			t.Fatal("concurrent Gets produced distinct profiles")
		}
	}
	if p.Len() != 1 {
		t.Fatalf("table has %d entries, want 1", p.Len())
	}
}

// restamped rewrites the table at path with edit applied to every entry,
// re-framed the way SaveFile frames it, and returns the new file's path.
func restamped(t *testing.T, path string, edit func(*Profile)) string {
	t.Helper()
	rest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for len(rest) > 0 {
		var payload []byte
		if payload, rest, err = ipc.DecodeFrame(rest); err != nil {
			t.Fatal(err)
		}
		var ent persistEntry
		if err := json.Unmarshal(payload, &ent); err != nil {
			t.Fatal(err)
		}
		edit(ent.Profile)
		enc, err := encodeEntry(ent.Key, ent.Profile)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc...)
	}
	edited := filepath.Join(t.TempDir(), "edited.slate")
	if err := os.WriteFile(edited, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return edited
}

// LoadFile must refuse entries measured on another device or model
// generation.
func TestLoadSkipsMismatchedEntries(t *testing.T) {
	_, path := savedTable(t, "k1")
	// Corrupt the stamp two ways and confirm each is skipped.
	fresh := newProfiler()
	st, err := fresh.LoadFile(restamped(t, path, func(pr *Profile) { pr.Device = "FakeGPU 9000" }))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 || st.Skipped != 1 {
		t.Fatalf("loaded %d foreign-device profiles (stats %+v), want 0", fresh.Len(), st)
	}
	fresh2 := newProfiler()
	st, err = fresh2.LoadFile(restamped(t, path, func(pr *Profile) {
		if pr.ModelVersion != engine.ModelVersion {
			t.Fatalf("saved table stamped model_version %d, want engine.ModelVersion=%d", pr.ModelVersion, engine.ModelVersion)
		}
		pr.ModelVersion = 999
	}))
	if err != nil {
		t.Fatal(err)
	}
	if fresh2.Len() != 0 || st.Skipped != 1 {
		t.Fatalf("loaded %d stale-model profiles (stats %+v), want 0", fresh2.Len(), st)
	}
	// The untouched table loads and serves Get without re-measuring.
	ok := newProfiler()
	if _, err := ok.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if ok.Len() != 1 {
		t.Fatalf("loaded %d profiles, want 1", ok.Len())
	}
	pr, err := ok.Get(testSpec("k1@99", 2400, 1e8, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Kernel != "k1" {
		t.Fatalf("loaded entry not served for renamed instance: got %q", pr.Kernel)
	}
}

// Profiles persisted by the version-1 model (per-capacity set-associative
// MRC simulations) must be auto-invalidated under the version-2 one-pass
// model: their hit-rate-derived numbers were produced by a different curve.
func TestLoadInvalidatesModelVersion1Tables(t *testing.T) {
	if engine.ModelVersion <= 1 {
		t.Skip("current model is still version 1")
	}
	_, path := savedTable(t, "v1")
	fresh := newProfiler()
	if _, err := fresh.LoadFile(restamped(t, path, func(pr *Profile) { pr.ModelVersion = 1 })); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 {
		t.Fatalf("served %d version-1 profiles under model version %d, want 0",
			fresh.Len(), engine.ModelVersion)
	}
}
