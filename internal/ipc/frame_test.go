package ipc

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"kind":3,"sess":1,"opid":7}`),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(AppendFrame(nil, p))
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// Every strict prefix of a valid frame stream that ends mid-frame must
// report ErrFrameTruncated — the torn tail a crashing writer leaves.
func TestFrameTruncationDetected(t *testing.T) {
	full := AppendFrame(nil, []byte("durable record payload"))
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut at %d: %v, want ErrFrameTruncated", cut, err)
		}
	}
}

// Any single flipped bit in a complete frame is caught: a payload flip (or a
// stored-CRC flip) fails the checksum, a length flip either changes where
// the stream tears or makes the frame impossible.
func TestFrameBitFlipDetected(t *testing.T) {
	payload := []byte("checksummed journal record")
	full := AppendFrame(nil, payload)
	for i := 0; i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= 1 << bit
			got, err := ReadFrame(bytes.NewReader(mut))
			if err == nil && bytes.Equal(got, payload) {
				t.Fatalf("flip byte %d bit %d: corruption went undetected", i, bit)
			}
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A header declaring a payload beyond maxFramePayload must fail as
	// corrupt without attempting the allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	_, err := ReadFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized length: %v, want ErrFrameCorrupt", err)
	}
	// ReadFrameWithin bounds the declared length by the caller's limit.
	frame := AppendFrame(nil, []byte("12345"))
	if _, err := ReadFrameWithin(bytes.NewReader(frame), 4); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("length over the caller's bound: %v, want ErrFrameCorrupt", err)
	}
	if _, err := ReadFrameWithin(bytes.NewReader(frame), 5); err != nil {
		t.Fatalf("length at the caller's bound: %v", err)
	}
}

// A half-written reply frame followed by garbage: the reader reports the
// first failure and never misinterprets trailing bytes as a frame.
func TestFrameStreamStopsAtFirstBadFrame(t *testing.T) {
	stream := append(AppendFrame(nil, []byte("good")), AppendFrame(nil, []byte("torn"))[:5]...)
	r := bytes.NewReader(stream)
	if _, err := ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(r); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("torn second frame: %v", err)
	}
}

// DecodeFrame's in-place contract: it walks a buffer frame by frame,
// classifies damage, and — unlike the stream reader — can step PAST a
// checksum-failed frame so per-entry tables skip one bad record instead of
// abandoning the rest.
func TestDecodeFrameSkipAndContinue(t *testing.T) {
	buf := AppendFrame(nil, []byte("first"))
	second := len(buf)
	buf = AppendFrame(buf, []byte("second"))
	buf = AppendFrame(buf, []byte("third"))
	buf[second+FrameHeaderSize] ^= 0xFF // corrupt "second"'s payload

	payload, rest, err := DecodeFrame(buf)
	if err != nil || string(payload) != "first" {
		t.Fatalf("first frame = %q, %v", payload, err)
	}
	_, rest, err = DecodeFrame(rest)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt frame = %v, want ErrFrameCorrupt", err)
	}
	if rest == nil {
		t.Fatal("corrupt-but-complete frame did not yield a continuation")
	}
	payload, rest, err = DecodeFrame(rest)
	if err != nil || string(payload) != "third" {
		t.Fatalf("frame after corruption = %q, %v", payload, err)
	}
	if _, _, err := DecodeFrame(rest); err != io.EOF {
		t.Fatalf("end of buffer = %v, want io.EOF", err)
	}

	// A torn tail has no continuation: the walk must stop.
	torn := AppendFrame(nil, []byte("whole"))
	torn = append(torn, AppendFrame(nil, []byte("partial"))[:6]...)
	if _, rest, err = DecodeFrame(torn); err != nil {
		t.Fatal(err)
	}
	if _, rest, err = DecodeFrame(rest); !errors.Is(err, ErrFrameTruncated) || rest != nil {
		t.Fatalf("torn tail = %v (rest %v), want ErrFrameTruncated with no continuation", err, rest)
	}
}

func TestFrameErrorsAreDescriptive(t *testing.T) {
	bad := AppendFrame(nil, []byte("abc"))
	bad[len(bad)-1] ^= 0x01
	_, err := ReadFrame(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "crc32c") {
		t.Fatalf("corrupt-frame error %v does not name the checksum", err)
	}
}
