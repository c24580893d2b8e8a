package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slate/internal/fault"
	"slate/internal/ipc"
)

// awkward are the strings the encoder must hand to json.Marshal or get
// exactly right: empty, plain, every escaped ASCII byte, control bytes, DEL,
// multi-byte and invalid UTF-8, and the two line separators JSON escapes.
var awkward = []string{
	"", "bench_noop", "src:saxpy", "daemon: launch op 7 lost in crash",
	`kernel "k" panicked`, `back\slash`, "a<b", "a>b", "a&b", "tab\there", "nl\nhere",
	"\x00", "\x1f", "\x7f", "héllo", "日本語", "\xff\xfe", "bad\xc3", "sep\u2028x", "sep\u2029x",
	"emoji😀", " ", "~", "[]{}:,",
}

// randomString draws from awkward and raw bytes, or — tame — from printable
// ASCII only, so that half the random records are ones the hand-written path
// encodes itself.
func randomString(rng *rand.Rand, tame bool) string {
	if tame {
		return []string{"", "", "bench", "bench_noop", "src:stencil2d", "poison", "slate_k [x]{y}: ~ok"}[rng.Intn(7)]
	}
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return awkward[rng.Intn(len(awkward))]
	case 2:
		return awkward[rng.Intn(len(awkward))] + awkward[rng.Intn(len(awkward))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Intn(1024)
	case 2:
		return -rng.Intn(1024)
	}
	return int(rng.Uint64())
}

func randomUint(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return uint64(rng.Intn(1 << 20))
	}
	return rng.Uint64()
}

func randomEntries(rng *rand.Rand, tame bool) []string {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = randomString(rng, tame)
	}
	return out
}

// randomRecord draws every field independently, whatever the kind: the
// encoder's contract is per field, not per record shape.
func randomRecord(rng *rand.Rand) *Record {
	tame := rng.Intn(2) == 0
	r := &Record{
		Kind: Kind(rng.Intn(int(KindSessionMigrate) + 2)), // 0 and every defined kind
		Sess: randomUint(rng), OpID: randomUint(rng), Token: randomUint(rng),
		Proc: randomString(rng, tame), Kernel: randomString(rng, tame), Src: rng.Intn(2) == 0,
		GridX: randomInt(rng), GridY: randomInt(rng), BlockX: randomInt(rng), BlockY: randomInt(rng),
		TaskSize: randomInt(rng), Stream: randomInt(rng),
		Degraded: rng.Intn(2) == 0, Entries: randomEntries(rng, tame),
		Code: uint8(rng.Intn(256)), Err: randomString(rng, tame), Action: randomString(rng, tame),
		Class: randomInt(rng), MaxOp: randomUint(rng), Lost: randomString(rng, tame),
	}
	switch rng.Intn(8) {
	case 0:
		r.SoloSec = rng.NormFloat64()
	case 1:
		r.SoloSec = []float64{1e-9, 1e21, 1e-7, math.Copysign(0, -1), math.MaxFloat64, 0.001}[rng.Intn(6)]
	}
	if rng.Intn(8) == 0 {
		r.AdoptOps = make([]*AdoptedOp, rng.Intn(3)) // empty slice included
		for i := range r.AdoptOps {
			r.AdoptOps[i] = &AdoptedOp{
				OpID: randomUint(rng), Code: uint8(rng.Intn(256)), Err: randomString(rng, tame),
				Entries: randomEntries(rng, tame), Done: rng.Intn(2) == 0, Kernel: randomString(rng, tame),
				GridX: randomInt(rng), TaskSize: randomInt(rng),
			}
		}
	}
	return r
}

// checkAgainstMarshal holds appendRecord to its contract on one record:
// json.Marshal's bytes appended behind what dst already held, or
// json.Marshal's refusal with dst untouched.
func checkAgainstMarshal(t *testing.T, r *Record) {
	t.Helper()
	want, werr := json.Marshal(r)
	prefix := []byte("prefix")
	got, gerr := appendRecord(prefix, r)
	if werr != nil {
		if gerr == nil || !bytes.Equal(got, prefix) {
			t.Fatalf("json.Marshal refuses %+v (%v); appendRecord = %q, %v", r, werr, got, gerr)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("appendRecord(%+v): %v", r, gerr)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("record %+v\n got %s\nwant %s", r, got[len(prefix):], want)
	}
}

// The hand-written encoder is json.Marshal, byte for byte, over every field,
// every kind, and every awkward string; json.Marshal is the oracle.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	for _, s := range awkward {
		for _, r := range []*Record{
			{Kind: KindSessionOpen, Proc: s}, {Kind: KindLaunchAccept, Kernel: s},
			{Kind: KindLaunchComplete, Err: s}, {Kind: KindStrike, Action: s},
			{Kind: KindSessionAdopt, Lost: s}, {Kind: KindLaunchAccept, Entries: []string{"ok", s}},
		} {
			checkAgainstMarshal(t, r)
		}
	}
	checkAgainstMarshal(t, &Record{})
	checkAgainstMarshal(t, &Record{Kind: KindProfile, Kernel: "k", SoloSec: math.NaN()})
	checkAgainstMarshal(t, &Record{Kind: KindProfile, Kernel: "k", SoloSec: math.Inf(1)})
	checkAgainstMarshal(t, &Record{Kind: KindLaunchAccept, Entries: []string{}})
	rng := rand.New(rand.NewSource(1))
	fast := 0
	for i := 0; i < 50000; i++ {
		r := randomRecord(rng)
		checkAgainstMarshal(t, r)
		if !needsMarshal(r) {
			fast++
		}
	}
	if fast < 10000 {
		t.Fatalf("only %d of 50000 random records took the hand-written path; the test is not testing it", fast)
	}
}

// The two record shapes the launch path writes decode back to themselves
// through the only decoder there is.
func TestAppendRecordRoundTripsThroughUnmarshal(t *testing.T) {
	for _, want := range []Record{
		{Kind: KindLaunchAccept, Sess: 3, OpID: 41, Kernel: "src:saxpy", Src: true, GridX: 4, GridY: 1, BlockX: 32, BlockY: 1, TaskSize: 10, Entries: []string{"slate_saxpy", "slate_dispatch"}},
		{Kind: KindLaunchComplete, Sess: 3, OpID: 41, Code: 9, Err: "daemon: deadline expired before execution"},
	} {
		b, err := appendRecord(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if gb, _ := json.Marshal(&got); !bytes.Equal(gb, b) {
			t.Fatalf("round trip changed the record: %s → %s", b, gb)
		}
	}
}

func FuzzAppendRecord(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint64(2), uint64(0), "bench", "bench_noop", "", "", "", "slate_k", uint8(2), 4, -1, uint8(0), 0.0)
	f.Add(uint8(4), uint64(1), uint64(2), uint64(0), "", "", `kernel "k" <panicked>`, "poison", "", "", uint8(0), 0, 0, uint8(3), 0.0)
	f.Add(uint8(6), uint64(0), uint64(0), uint64(9), "p ", "k\xff", "", "", "lost\n", "é", uint8(1), 1, 1, uint8(7), 1.5e-3)
	f.Fuzz(func(t *testing.T, kind uint8, sess, op, tok uint64, proc, kernel, errS, action, lost, entry string,
		nEntries uint8, geom, stream int, flags uint8, solo float64) {
		r := &Record{
			Kind: Kind(kind), Sess: sess, OpID: op, Token: tok, Proc: proc, Kernel: kernel,
			Src: flags&1 != 0, GridX: geom, GridY: -geom, BlockX: geom >> 3, BlockY: geom & 7,
			TaskSize: stream ^ geom, Stream: stream, Degraded: flags&2 != 0,
			Code: flags, Err: errS, Action: action, Class: stream, SoloSec: solo, MaxOp: op ^ tok, Lost: lost,
		}
		for i := 0; i < int(nEntries%4); i++ {
			r.Entries = append(r.Entries, entry+strings.Repeat("x", i))
		}
		if flags&4 != 0 {
			r.AdoptOps = []*AdoptedOp{{OpID: op, Err: errS, Entries: r.Entries, Kernel: kernel, GridX: geom}}
		}
		checkAgainstMarshal(t, r)
	})
}

// parentFrames is the framing the journal has always written: one
// AppendFrame of json.Marshal per record. The crash sites are specified
// against it.
func parentFrames(t *testing.T, recs []*Record) (frames [][]byte, all []byte) {
	t.Helper()
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ipc.AppendFrame(nil, payload))
		all = append(all, frames[len(frames)-1]...)
	}
	return frames, all
}

// Every tearing crash site leaves exactly the file bytes it left when each
// frame was its own slice: half a frame for a single append, ⌈n/2⌉ whole
// frames plus half the next mid-batch, half the group buffer on a short
// write — behind an intact prefix, with nothing of the torn group counted.
func TestCrashSitesTearTheSameBytes(t *testing.T) {
	prefix := rec(1, 1, "prefix")
	for _, n := range []int{1, 2, 3, 4, 5, 32} {
		group := make([]*Record, n)
		for i := range group {
			// Unequal frame lengths, one of them through the json.Marshal path.
			group[i] = rec(7, uint64(i+2), strings.Repeat("k", i%5)+[]string{"", "<"}[i%2])
		}
		frames, all := parentFrames(t, group)
		_, pre := parentFrames(t, []*Record{prefix})
		keep := (n + 1) / 2
		batchMid := append([]byte(nil), bytes.Join(frames[:keep], nil)...)
		if keep < n {
			batchMid = append(batchMid, frames[keep][:len(frames[keep])/2]...)
		}
		cases := []struct {
			site  string
			batch bool
			want  []byte
		}{
			{fault.SiteJournalAppendPre, false, frames[0][:len(frames[0])/2]},
			{fault.SiteJournalWriteShort, false, frames[0][:len(frames[0])/2]},
			{fault.SiteJournalBatchMid, true, batchMid},
			{fault.SiteJournalWriteShort, true, all[:len(all)/2]},
			{fault.SiteJournalWriteErr, true, nil},
		}
		for _, c := range cases {
			path := filepath.Join(t.TempDir(), "j.slate")
			w, err := OpenWriter(path)
			if err != nil {
				t.Fatal(err)
			}
			w.NoSync = true
			if err := w.Append(prefix); err != nil {
				t.Fatal(err)
			}
			w.CrashHook = fault.NewCrasher(c.site, 0).Hook()
			if c.batch {
				err = w.AppendBatch(group)
			} else {
				err = w.Append(group[0])
			}
			if !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("n=%d %s: armed append = %v, want ErrCrash", n, c.site, err)
			}
			if w.Records() != 1 {
				t.Fatalf("n=%d %s: %d records counted, want the prefix alone", n, c.site, w.Records())
			}
			// Dead is checked before any byte is written.
			if err := w.Append(prefix); !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("n=%d %s: append on a dead writer = %v", n, c.site, err)
			}
			w.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(append([]byte(nil), pre...), c.want...); !bytes.Equal(got, want) {
				t.Fatalf("n=%d %s batch=%v: file holds %d bytes, the parent framing leaves %d", n, c.site, c.batch, len(got), len(want))
			}
		}
	}
}

// The reused buffer never leaks into the file: a record that cannot be
// encoded writes nothing — alone or mid-group — and the appends after it
// write exactly their own frames; a one-off large group does not keep its
// buffer.
func TestWriterBufferHygiene(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.slate")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	w.NoSync = true
	bad := &Record{Kind: KindProfile, Kernel: "nan", SoloSec: math.NaN()}
	if err := w.Append(bad); err == nil {
		t.Fatal("NaN SoloSec encoded")
	}
	if err := w.AppendBatch([]*Record{rec(1, 1, "a"), rec(1, 2, "b"), bad, rec(1, 3, "c")}); err == nil {
		t.Fatal("group with a NaN SoloSec encoded")
	}
	if w.Records() != 0 {
		t.Fatalf("%d records counted after two refused appends", w.Records())
	}
	big := &Record{Kind: KindLaunchComplete, Sess: 1, OpID: 9, Err: strings.Repeat("e", 3*keepBufCap)}
	written := []*Record{rec(1, 4, "small"), big, rec(1, 5, "after"), rec(1, 6, "batch"), rec(1, 7, "batch")}
	if err := w.Append(written[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(written[1:3]); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > keepBufCap {
		t.Fatalf("writer kept a %d-byte buffer after a one-off large group (cap %d)", cap(w.buf), keepBufCap)
	}
	if err := w.AppendBatch(written[3:]); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.buf); c == 0 || c > keepBufCap {
		t.Fatalf("buffer cap %d after a small group, want it kept and small", c)
	}
	w.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := parentFrames(t, written); !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes, want exactly the five written frames (%d)", len(got), len(want))
	}
}
