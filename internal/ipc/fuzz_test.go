package ipc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzReadFrame feeds the frame decoder arbitrary byte streams — including
// the checked-in corpus of truncated and bit-flipped journal and reply
// frames — and asserts the decoder's contract: it never panics, it only
// returns classified errors, and every successfully decoded payload
// re-encodes to a frame that decodes to the same bytes.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: well-formed frames around realistic payloads (a
	// journal-style JSON record and a command-channel Reply), plus hostile
	// variants. Checked-in file corpus lives in testdata/fuzz/FuzzReadFrame.
	journalRec := []byte(`{"k":3,"sess":2,"op":7,"kernel":"stream_triad"}`)
	reply := encodeWire(&Reply{Seq: 9, Session: 2, Token: 0xfeed, Recovered: true})

	f.Add(AppendFrame(nil, journalRec))
	f.Add(AppendFrame(nil, reply))
	f.Add(AppendFrame(nil, nil))
	f.Add(AppendFrame(AppendFrame(nil, journalRec), reply)) // two frames
	f.Add(AppendFrame(nil, journalRec)[:11])                // torn payload
	f.Add(AppendFrame(nil, journalRec)[:3])                 // torn header
	flipped := AppendFrame(nil, journalRec)
	flipped[FrameHeaderSize+4] ^= 0x20
	f.Add(flipped)                                         // bit-flipped payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 'x'}) // absurd length
	f.Add([]byte{})
	// A batch request: one item carrying its source, one referring to it by
	// SrcRef.
	f.Add(AppendFrame(nil, encodeWire(&Request{Op: OpLaunchBatch, Seq: 3, Batch: []BatchItem{
		{Src: true, OpID: 1, Source: "__global__ void k(int n) {}", Kernel: "k", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1},
		{Src: true, OpID: 2, SrcRef: 1, Kernel: "k", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1},
	}})))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The in-place decoder must never panic and must stay classified;
		// where both decoders succeed on the first frame, they must agree.
		first, _, derr := DecodeFrame(data)
		if derr != nil && derr != io.EOF &&
			!errors.Is(derr, ErrFrameTruncated) && !errors.Is(derr, ErrFrameCorrupt) {
			t.Fatalf("unclassified DecodeFrame error: %v", derr)
		}

		r := bytes.NewReader(data)
		for i := 0; ; i++ {
			payload, err := ReadFrame(r)
			if err != nil {
				if err == io.EOF ||
					errors.Is(err, ErrFrameTruncated) ||
					errors.Is(err, ErrFrameCorrupt) {
					return // classified end: truncation, corruption, or done
				}
				t.Fatalf("unclassified decode error: %v", err)
			}
			if i == 0 {
				if derr != nil {
					t.Fatalf("ReadFrame decoded the first frame, DecodeFrame said %v", derr)
				}
				if !bytes.Equal(first, payload) {
					t.Fatal("DecodeFrame and ReadFrame disagree on the first payload")
				}
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("decoded payload of %d bytes exceeds bound", len(payload))
			}
			// Round trip: re-encoding the decoded payload must survive.
			back, err := ReadFrame(bytes.NewReader(AppendFrame(nil, payload)))
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatal("re-encoded frame decoded to different payload")
			}
		}
	})
}

// FuzzResolveSrcRefs puts batches whose items carry arbitrary source refs
// and op IDs, as a frame from a client may, through the daemon's two frame
// checks. Neither may panic. CheckOpOrder refuses exactly the frames in which
// some stamped op ID is at or below an earlier stamped one. Any out-of-range
// ref must be an error, and a batch ResolveSrcRefs accepts has every ref
// resolved to its carrier's source.
func FuzzResolveSrcRefs(f *testing.F) {
	// Each byte of data is one item: bit 0 marks a source launch, bit 1 gives
	// it a source text, and the high six bits are its SrcRef (-32..31). Byte i
	// of ops is item i's op ID (0, unstamped, past its end).
	f.Add([]byte{0x03, 0x05, 0x00, 0x03, 0x11, 0x05}, []byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0x09, 0x03}, []byte{})           // forward ref
	f.Add([]byte{0x03, 0xFD}, []byte{})           // negative ref
	f.Add([]byte{0x03, 0x05, 0x09}, []byte{})     // ref to a ref
	f.Add([]byte{0x07}, []byte{})                 // both a source and a ref
	f.Add([]byte{0, 0, 0, 0}, []byte{5, 5, 7, 6}) // one op twice, one out of order
	f.Add([]byte{0, 0, 0}, []byte{3, 0, 4})       // an unstamped item between two
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		items := make([]BatchItem, len(data))
		outOfRange := false
		for i, b := range data {
			it := &items[i]
			it.Src = b&1 != 0
			if b&2 != 0 {
				it.Source = fmt.Sprintf("source %d", i)
			}
			it.SrcRef = int(int8(b)) >> 2
			if it.SrcRef != 0 && (it.SrcRef < 0 || it.SrcRef > i) {
				outOfRange = true
			}
			if i < len(ops) {
				it.OpID = uint64(ops[i])
			}
		}
		repeated := false
		for j := range items {
			for i := 0; i < j; i++ {
				if items[i].OpID != 0 && items[j].OpID != 0 && items[j].OpID <= items[i].OpID {
					repeated = true
				}
			}
		}
		if err := CheckOpOrder(items); (err != nil) != repeated || err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("CheckOpOrder = %v on op IDs %v (out of order: %v)", err, ops[:min(len(ops), len(items))], repeated)
		}
		orig := append([]BatchItem(nil), items...)
		err := ResolveSrcRefs(items)
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if outOfRange {
			t.Fatalf("accepted a batch with an out-of-range ref: %+v", orig)
		}
		for i, it := range items {
			if it.SrcRef == 0 {
				continue
			}
			carrier := orig[it.SrcRef-1]
			if !carrier.Src || carrier.SrcRef != 0 || it.Source != carrier.Source {
				t.Fatalf("item %d resolved to %q through item %d %+v", i, it.Source, it.SrcRef, carrier)
			}
		}
	})
}
