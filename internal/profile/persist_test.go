package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"slate/internal/engine"
	"slate/internal/fault"
	"slate/internal/ipc"
)

func savedTable(t *testing.T, names ...string) (*Profiler, string) {
	t.Helper()
	p := newProfiler()
	for i, n := range names {
		if _, err := p.Get(testSpec(n, 2400, float64(1+i)*1e8, 1e4)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "profiles.slate")
	if err := p.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	return p, path
}

// SaveFile → LoadFile round trips every profiled kernel, and a re-save of
// the loaded table is byte-identical (deterministic sorted framing).
func TestSaveLoadFileRoundTrip(t *testing.T) {
	_, path := savedTable(t, "rt-a", "rt-b", "rt-c")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	q := newProfiler()
	st, err := q.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 3 || st.Skipped != 0 || st.Quarantined != 0 || st.TruncatedTail != 0 {
		t.Fatalf("stats = %+v, want 3 clean loads", st)
	}
	for _, n := range []string{"rt-a", "rt-b", "rt-c"} {
		if _, ok := lookup(q, n); !ok {
			t.Fatalf("kernel %q missing after load", n)
		}
	}
	resaved := filepath.Join(t.TempDir(), "again.slate")
	if err := q.SaveFile(resaved, nil); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back) {
		t.Fatal("save → load → save is not byte-identical")
	}
}

// One corrupt entry costs one entry: it moves to the .bad sidecar and every
// other entry still loads.
func TestCorruptEntryQuarantined(t *testing.T) {
	_, path := savedTable(t, "cq-a", "cq-b", "cq-c")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the first frame.
	data[ipc.FrameHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	q := newProfiler()
	st, err := q.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.Loaded != 2 || st.TruncatedTail != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined and 2 loaded", st)
	}
	if q.Len() != 2 {
		t.Fatalf("table holds %d entries, want 2", q.Len())
	}
	bad, err := os.ReadFile(path + ".bad")
	if err != nil {
		t.Fatal("no .bad sidecar for the corrupt entry")
	}
	// The sidecar holds the damaged frame verbatim.
	if !bytes.Equal(bad, data[:len(bad)]) {
		t.Fatal(".bad sidecar does not hold the damaged frame bytes")
	}
}

// A torn tail — the partial frame a crash mid-write leaves — stops the walk
// without failing the load; complete entries before the tear survive.
func TestTornTailStopsWalk(t *testing.T) {
	_, path := savedTable(t, "tt-a", "tt-b")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	q := newProfiler()
	st, err := q.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 1 || st.TruncatedTail == 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 loaded and a reported torn tail", st)
	}
}

// Entries stamped with a foreign model generation are skipped on load — the
// same regression guard the streaming Load applies.
func TestModelVersionMismatchSkipped(t *testing.T) {
	p, path := savedTable(t, "mv-keep")
	// Forge a second table entry claiming a future model version.
	pr, _ := lookup(p, "mv-keep")
	forged := *pr
	forged.Fingerprint = ""
	forged.ModelVersion = engine.ModelVersion + 1
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeEntry("mv-drop", &forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, enc...), 0o644); err != nil {
		t.Fatal(err)
	}

	q := newProfiler()
	st, err := q.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 1 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want the forged generation skipped", st)
	}
	if _, ok := lookup(q, "mv-drop"); ok {
		t.Fatal("foreign-generation entry loaded")
	}
}

// A crash between the durable temp write and the rename publishes nothing:
// the old table's bytes are untouched and the next load clears the orphan.
func TestCrashMidPublishKeepsOldTable(t *testing.T) {
	p, path := savedTable(t, "cp-a")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(testSpec("cp-b", 2400, 2e8, 1e4)); err != nil {
		t.Fatal(err)
	}
	c := fault.NewCrasher(fault.SiteProfileRenameMid, 0)
	if err := p.SaveFile(path, c.Hook()); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("armed save = %v, want ErrCrash", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("crash mid-publish changed the published table")
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatal("crash left no temp evidence")
	}

	q := newProfiler()
	st, err := q.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 1 {
		t.Fatalf("stats = %+v, want the old single-entry table", st)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("orphan temp file survived the load")
	}
}

// A missing table is a cold start, not an error; a clean save leaves no
// temp file behind.
func TestMissingTableIsCold(t *testing.T) {
	q := newProfiler()
	st, err := q.LoadFile(filepath.Join(t.TempDir(), "absent.slate"))
	if err != nil {
		t.Fatal(err)
	}
	if st != (LoadStats{}) {
		t.Fatalf("stats for a missing table = %+v, want zero", st)
	}
	_, path := savedTable(t, "cold-a")
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("clean save left a temp file")
	}
}

// encodeEntry frames one persistEntry the way SaveFile does.
func encodeEntry(key string, pr *Profile) ([]byte, error) {
	b, err := json.Marshal(persistEntry{Key: key, Profile: pr})
	if err != nil {
		return nil, err
	}
	return ipc.AppendFrame(nil, b), nil
}
