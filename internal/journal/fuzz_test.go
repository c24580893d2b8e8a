package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"slate/internal/ipc"
)

// FuzzReplay writes arbitrary bytes as a journal file and replays it. A
// journal is read back from disk after a crash, so its bytes come from
// outside the program. Replay must never panic, and it must end with either
// an error or a clean prefix: the file cut to the whole records it applied,
// which a second replay applies again, untruncated.
func FuzzReplay(f *testing.F) {
	a, _ := json.Marshal(rec(1, 1, "sgemm"))
	b, _ := json.Marshal(&Record{Kind: KindLaunchComplete, Sess: 1, OpID: 1, Err: "boom"})
	two := ipc.AppendFrame(ipc.AppendFrame(nil, a), b)
	f.Add(two)
	f.Add(two[:len(two)-3])                         // torn tail
	f.Add(ipc.AppendFrame(nil, []byte("not json"))) // framed but undecodable
	flipped := bytes.Clone(two)
	flipped[ipc.FrameHeaderSize+2] ^= 0x40
	f.Add(flipped) // bit-flipped first record
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.slate")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var first []Record
		stats, err := Replay(path, func(r *Record) error {
			first = append(first, *r)
			return nil
		})
		if err != nil {
			return
		}
		if stats.Records != len(first) {
			t.Fatalf("stats say %d records, fn saw %d", stats.Records, len(first))
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(kept)) != int64(len(data))-stats.TruncatedBytes || !bytes.HasPrefix(data, kept) {
			t.Fatalf("replay left %d bytes, want the first %d of %d", len(kept), int64(len(data))-stats.TruncatedBytes, len(data))
		}
		if !stats.Truncated && stats.TruncatedBytes != 0 {
			t.Fatalf("untruncated replay dropped %d bytes", stats.TruncatedBytes)
		}
		var again []Record
		stats2, err := Replay(path, func(r *Record) error {
			again = append(again, *r)
			return nil
		})
		if err != nil || stats2.Truncated || stats2.Records != stats.Records {
			t.Fatalf("second replay: %+v, %v; want %d records, clean", stats2, err, stats.Records)
		}
		for i := range first {
			x, _ := json.Marshal(&first[i])
			y, _ := json.Marshal(&again[i])
			if !bytes.Equal(x, y) {
				t.Fatalf("record %d replayed as %s, then as %s", i, x, y)
			}
		}
	})
}

// fuzzCheckpoint stands in for the daemon's checkpoint: a JSON object of
// mixed fields.
type fuzzCheckpoint struct {
	Seq      uint64             `json:"seq"`
	Sessions []string           `json:"sessions"`
	Profiles map[string]float64 `json:"profiles"`
}

// FuzzReadCheckpoint writes arbitrary bytes as a checkpoint file and reads
// it. ReadCheckpoint must never panic. It either loads the checkpoint and
// leaves the file in place, or reports no checkpoint and quarantines the
// corrupt file to .bad, or returns an error.
func FuzzReadCheckpoint(f *testing.F) {
	good, _ := json.Marshal(&fuzzCheckpoint{Seq: 7, Sessions: []string{"a"}, Profiles: map[string]float64{"k": 1.5}})
	frame := ipc.AppendFrame(nil, good)
	f.Add(frame)
	f.Add(frame[:len(frame)-1])                    // torn
	f.Add(append(bytes.Clone(frame), 0))           // trailing byte
	f.Add(ipc.AppendFrame(nil, []byte(`[1,2,3]`))) // valid frame, wrong shape
	f.Add(ipc.AppendFrame(nil, []byte(`{"seq":`))) // valid frame, torn JSON
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "checkpoint.slate")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var v fuzzCheckpoint
		ok, err := ReadCheckpoint(path, &v)
		if err != nil {
			return
		}
		_, statErr := os.Stat(path)
		bad, badErr := os.ReadFile(path + ".bad")
		switch {
		case ok && (statErr != nil || badErr == nil):
			t.Fatalf("loaded checkpoint: file present = %v, quarantined = %v", statErr == nil, badErr == nil)
		case !ok && (!errors.Is(statErr, os.ErrNotExist) || badErr != nil || !bytes.Equal(bad, data)):
			t.Fatalf("refused checkpoint: file gone = %v, quarantined intact = %v", errors.Is(statErr, os.ErrNotExist), badErr == nil && bytes.Equal(bad, data))
		}
	})
}
