package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"slate/internal/ipc"
	"slate/internal/journal"
)

// The dedup window is a bounded FIFO: pushing past DedupWindow evicts the
// oldest entries while MaxOp keeps climbing.
func TestDedupWindowEviction(t *testing.T) {
	st := &resumeState{Sess: 1, Token: 0xabc}
	total := DedupWindow + 10
	for i := 1; i <= total; i++ {
		st.push(&journal.AdoptedOp{OpID: uint64(i)})
	}
	if len(st.Window) != DedupWindow {
		t.Fatalf("window holds %d entries, want the %d bound", len(st.Window), DedupWindow)
	}
	if st.MaxOp != uint64(total) {
		t.Fatalf("MaxOp = %d, want %d", st.MaxOp, total)
	}
	if st.entry(1) != nil || st.entry(10) != nil {
		t.Fatal("evicted ops still resolvable in the window")
	}
	if st.entry(uint64(total)) == nil || st.entry(uint64(total-DedupWindow+1)) == nil {
		t.Fatal("in-window ops missing")
	}
}

// refPush is the window as it was first written — append, then copy the
// last DedupWindow entries into a fresh slice — kept as the reference the
// sliding window is compared against.
func refPush(w []*journal.AdoptedOp, e *journal.AdoptedOp) []*journal.AdoptedOp {
	w = append(w, e)
	if n := len(w) - DedupWindow; n > 0 {
		w = append([]*journal.AdoptedOp(nil), w[n:]...)
	}
	return w
}

// The sliding window is the reference window at every step of 10 000
// pushes: the same entries in op order, the same watermark, the same
// checkpoint JSON from a clone; entry finds exactly the ops still inside;
// and a full window pushes without allocating. Starting points cover the
// slices push can be handed: none, and ones decoded from a checkpoint short
// of, at, and beyond the bound.
func TestDedupWindowSlidesLikeTheReference(t *testing.T) {
	for _, seeded := range []int{0, 50, DedupWindow, DedupWindow + 40} {
		st := &resumeState{Sess: 1, Token: 0xabc, Proc: "w"}
		var ref []*journal.AdoptedOp
		op := uint64(0)
		if seeded > 0 {
			for i := 0; i < seeded; i++ {
				op += 1 + op%3 // op IDs ascend with gaps, as re-stamped retries leave them
				ref = append(ref, &journal.AdoptedOp{OpID: op, Kernel: "seed"})
			}
			blob, err := json.Marshal(&resumeState{Sess: 1, Token: 0xabc, Proc: "w", MaxOp: op, Window: ref})
			if err != nil {
				t.Fatal(err)
			}
			st = &resumeState{}
			if err := json.Unmarshal(blob, st); err != nil {
				t.Fatal(err)
			}
			ref = append([]*journal.AdoptedOp(nil), st.Window...)
		}
		for i := 0; i < 10000; i++ {
			op += 1 + op%3
			e := &journal.AdoptedOp{OpID: op, Kernel: "k", Entries: []string{fmt.Sprint(op)}, Done: i%2 == 0}
			st.push(e)
			ref = refPush(ref, e)
			if i%97 != 0 && i < 9990 {
				continue
			}
			if st.MaxOp != op {
				t.Fatalf("seeded=%d push %d: MaxOp = %d, want %d", seeded, i, st.MaxOp, op)
			}
			if len(st.Window) != len(ref) || len(ref) > DedupWindow+seeded {
				t.Fatalf("seeded=%d push %d: window holds %d entries, reference %d", seeded, i, len(st.Window), len(ref))
			}
			for j, e := range ref {
				if st.Window[j] != e {
					t.Fatalf("seeded=%d push %d: window[%d] is op %d, reference op %d", seeded, i, j, st.Window[j].OpID, e.OpID)
				}
				if st.entry(e.OpID) != e {
					t.Fatalf("seeded=%d push %d: entry(%d) missed an in-window op", seeded, i, e.OpID)
				}
			}
			for _, gone := range []uint64{0, ref[0].OpID - 1, op + 1} {
				if st.entry(gone) != nil {
					t.Fatalf("seeded=%d push %d: entry(%d) found an op outside the window", seeded, i, gone)
				}
			}
			got, err := json.Marshal(st.clone())
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&resumeState{Sess: 1, Token: 0xabc, Proc: "w", MaxOp: op, Window: ref})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seeded=%d push %d: checkpoint JSON of the clone differs from the reference", seeded, i)
			}
		}
		if len(st.Window) != DedupWindow {
			t.Fatalf("seeded=%d: window holds %d entries after 10000 pushes, want %d", seeded, len(st.Window), DedupWindow)
		}
		// A clone owns its window: pushing to it must not touch the original.
		cp, last := st.clone(), st.Window[len(st.Window)-1]
		for i := 0; i < 2*DedupWindow; i++ {
			op++
			cp.push(&journal.AdoptedOp{OpID: op})
		}
		if st.Window[len(st.Window)-1] != last || st.Window[0] != ref[0] {
			t.Fatalf("seeded=%d: pushing to a clone moved the original's window", seeded)
		}
		e := &journal.AdoptedOp{}
		if allocs := testing.AllocsPerRun(4*DedupWindow, func() {
			op++
			e.OpID = op
			st.push(e)
		}); allocs != 0 {
			t.Fatalf("seeded=%d: a push into a full window allocates %.2f times", seeded, allocs)
		}
	}
}

// dedup's three verdicts: fresh op falls through, in-window replay returns
// the stored ack verbatim with Dup set, and an evicted-but-accepted op gets
// the typed CodeDuplicateOp rejection.
func TestDedupCheckVerdicts(t *testing.T) {
	srv := NewServer(1)
	if _, err := srv.EnableDurability(Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()

	st := &resumeState{Sess: 1, Token: 0xabc}
	for i := 1; i <= DedupWindow+5; i++ {
		st.push(&journal.AdoptedOp{OpID: uint64(i), Degraded: true, Entries: []string{fmt.Sprintf("ack-%d", i)}})
	}

	// Fresh op: not handled.
	ack := &ipc.BatchAck{}
	if srv.dedup(st, st.MaxOp+1, ack) {
		t.Fatal("fresh op flagged as duplicate")
	}
	// Unstamped op (volatile client): never deduped.
	if srv.dedup(st, 0, ack) {
		t.Fatal("unstamped op flagged as duplicate")
	}

	// In-window replay: the original ack, verbatim.
	ack = &ipc.BatchAck{}
	if !srv.dedup(st, st.MaxOp, ack) {
		t.Fatal("in-window replay not handled")
	}
	if !ack.Dup || !ack.Degraded || len(ack.Entries) != 1 || ack.Entries[0] != fmt.Sprintf("ack-%d", st.MaxOp) {
		t.Fatalf("in-window replay = %+v, want the stored ack with Dup", ack)
	}

	// Evicted op: accepted once, outcome gone — the typed rejection.
	ack = &ipc.BatchAck{}
	if !srv.dedup(st, 2, ack) {
		t.Fatal("evicted duplicate not handled")
	}
	if ack.Code != ipc.CodeDuplicateOp || ack.Dup {
		t.Fatalf("evicted duplicate = %+v, want CodeDuplicateOp without Dup", ack)
	}
	if srv.DedupHits() != 2 {
		t.Fatalf("DedupHits = %d, want 2", srv.DedupHits())
	}
}

// acceptOne commits the accept record of one source launch as a group of one,
// the way a single launch reaches the journal.
func acceptOne(srv *Server, st *resumeState, op uint64) error {
	items := []ipc.BatchItem{{Src: true, OpID: op, Kernel: "k"}}
	return srv.acceptFrame(new(recordGroup), st, items, []ipc.BatchAck{{OpID: op}}, []int{0})
}

// Session poisoning survives a compaction: the strike record is folded into
// the checkpoint's poison fields before the journal (and the strike record
// in it) is reset, so a restart after any compaction still refuses the
// poisoned session's launches.
func TestPoisonSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(1)
	if _, err := srv.EnableDurability(Durability{Dir: dir, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.openSession(&session{id: 7}, "poisoned")
	if err != nil {
		t.Fatal(err)
	}
	if err := acceptOne(srv, st, 1); err != nil {
		t.Fatal(err)
	}
	srv.journalCompletions(new(recordGroup), []launchOutcome{{st: st, opID: 1, err: fmt.Errorf("kernel k: %w", ErrKernelPanic)}})

	// Fold everything into the checkpoint and reset the journal: the strike
	// record is gone, only the checkpoint can carry the poison now.
	srv.durable.compactMu.Lock()
	srv.compactLocked()
	srv.durable.compactMu.Unlock()
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	ls, _, _, err := loadDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := ls.bySess[7]
	if got == nil {
		t.Fatal("session 7 not recovered")
	}
	if got.PoisonErr == "" || got.PoisonCode != uint8(ipc.CodeOf(ErrKernelPanic)) {
		t.Fatalf("recovered poison = (%q, %d), want the panic sticky across compaction", got.PoisonErr, got.PoisonCode)
	}
	if e := got.entry(1); e == nil || !e.Done {
		t.Fatalf("recovered op 1 = %+v, want Done (no replay)", e)
	}
}

// Concurrent appenders racing compaction lose nothing: every accepted and
// completed op lands in checkpoint+journal even when compaction fires every
// other record, and (under -race) the checkpoint marshal does not read live
// session state while mutators run.
func TestConcurrentAppendsDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(1)
	if _, err := srv.EnableDurability(Durability{Dir: dir, NoSync: true, CompactEvery: 2}); err != nil {
		t.Fatal(err)
	}
	const goroutines, ops = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := srv.openSession(&session{id: uint64(100 + g)}, "stress")
			if err != nil {
				t.Error(err)
				return
			}
			for op := uint64(1); op <= ops; op++ {
				if err := acceptOne(srv, st, op); err != nil {
					t.Error(err)
					return
				}
				srv.journalCompletions(new(recordGroup), []launchOutcome{{st: st, opID: op}})
			}
		}(g)
	}
	wg.Wait()
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	ls, _, _, err := loadDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		st := ls.bySess[uint64(100+g)]
		if st == nil {
			t.Fatalf("session %d not recovered", 100+g)
		}
		if st.MaxOp != ops || len(st.Window) != ops {
			t.Fatalf("session %d recovered %d/%d ops (MaxOp=%d)", 100+g, len(st.Window), ops, st.MaxOp)
		}
		for _, e := range st.Window {
			if !e.Done {
				t.Fatalf("session %d op %d lost its completion across compaction", 100+g, e.OpID)
			}
		}
	}
}

// testdata/pr20_state is a state dir written by the PR 20 tree, when the
// window entry was two types copied field by field: a checkpoint holding an
// adopted session's window, then a journal with a session-adopt record and an
// accept/complete pair over that window; digest.txt is that tree's
// StateDigest of it. One type must read the same state out of those bytes,
// and write the same bytes back.
func TestPR20StateDirDecodesAndReencodesTheSame(t *testing.T) {
	fixture := filepath.Join("testdata", "pr20_state")
	dir := t.TempDir() // loading may repair a dir; never the fixture
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range []string{JournalFile, checkpointFile} {
		if err := os.WriteFile(filepath.Join(dir, name), read(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := StateDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(read("digest.txt")); got != want {
		t.Fatalf("state decoded from the PR 20 bytes differs\n got:\n%s\nwant:\n%s", got, want)
	}

	var ck checkpointState
	if ok, err := journal.ReadCheckpoint(filepath.Join(dir, checkpointFile), &ck); err != nil || !ok {
		t.Fatalf("read checkpoint: ok=%v err=%v", ok, err)
	}
	again := filepath.Join(t.TempDir(), checkpointFile)
	if err := journal.WriteCheckpoint(again, &ck, nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(again); !bytes.Equal(b, read(checkpointFile)) {
		t.Fatal("the checkpoint, decoded and written again, is not the PR 20 bytes")
	}

	again = filepath.Join(t.TempDir(), JournalFile)
	w, err := journal.OpenWriter(again)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.NoSync = true
	adopts := 0
	if _, err := journal.Replay(filepath.Join(dir, JournalFile), func(rec *journal.Record) error {
		if rec.Kind == journal.KindSessionAdopt {
			adopts++
		}
		return w.Append(rec)
	}); err != nil {
		t.Fatal(err)
	}
	if adopts == 0 {
		t.Fatal("fixture journal holds no session-adopt record")
	}
	if b, _ := os.ReadFile(again); !bytes.Equal(b, read(JournalFile)) {
		t.Fatal("the journal, decoded and appended again, is not the PR 20 bytes")
	}
}
