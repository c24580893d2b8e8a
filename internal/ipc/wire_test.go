package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// encodeWire is m's payload, without the length header.
func encodeWire(m walkable) []byte {
	w := walker{mode: modeWrite}
	w.message(m)
	return w.b
}

// decodeWire reads one payload into m.
func decodeWire(payload []byte, m walkable) error {
	var w walker
	return w.decode(payload, m)
}

// wireFrame is m's frame as Conn writes it.
func wireFrame(t *testing.T, m walkable) []byte {
	t.Helper()
	var w walker
	frame, err := w.encodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// fill sets every exported field of the struct v points to, and of the
// structs in its slices, to a value distinct from every other field's and
// non-zero, taking values from *k. A field of a kind it does not know fails
// the test, so a new kind of field gets a value here before it can pass.
func fill(t *testing.T, v reflect.Value, k *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		f := v.Field(i)
		*k++
		n := *k
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			// Wide values where the type has room, for multi-byte varints.
			x := uint64(n)<<40 | uint64(n)
			if f.OverflowUint(x) {
				x = uint64(n)
			}
			f.SetUint(x)
		case reflect.Int, reflect.Int64:
			f.SetInt(-int64(n) << 20)
		case reflect.String:
			f.SetString(fmt.Sprintf("field-%d", n))
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 3, 3)
			for j := 0; j < 3; j++ {
				e := s.Index(j)
				switch e.Kind() {
				case reflect.Uint8:
					e.SetUint(uint64(n + j))
				case reflect.String:
					if j > 0 { // an empty element is a value too
						e.SetString(fmt.Sprintf("elem-%d-%d", n, j))
					}
				case reflect.Struct:
					fill(t, e, k)
				default:
					t.Fatalf("%s.%s: no test value for elements of kind %s", v.Type(), v.Type().Field(i).Name, e.Kind())
				}
			}
			f.Set(s)
		default:
			t.Fatalf("%s.%s: no test value for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// roundTrip encodes m, decodes it into a fresh value of its type, and checks
// the two are equal and that the decoded value encodes to the same bytes.
func roundTrip(t *testing.T, m walkable) {
	t.Helper()
	payload := encodeWire(m)
	got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(walkable)
	if err := decodeWire(payload, got); err != nil {
		t.Fatalf("%T: decode: %v", m, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%T: decoded\n%+v\nwant\n%+v", m, got, m)
	}
	if again := encodeWire(got); !bytes.Equal(again, payload) {
		t.Fatalf("%T: re-encoded to % x, want % x", m, again, payload)
	}
}

// The codec carries every exported field of every message: filled all at
// once, one at a time, and not at all. A field added to a message and not
// to its walk decodes as zero and fails here.
func TestWireCarriesEveryField(t *testing.T) {
	for _, m := range []walkable{&Request{}, &Reply{}, &BatchItem{}, &BatchAck{}} {
		roundTrip(t, m) // the zero message: an empty mask

		full := reflect.New(reflect.TypeOf(m).Elem())
		k := 0
		fill(t, full.Elem(), &k)
		roundTrip(t, full.Interface().(walkable))

		for i := 0; i < full.Elem().NumField(); i++ {
			one := reflect.New(full.Elem().Type())
			one.Elem().Field(i).Set(full.Elem().Field(i))
			roundTrip(t, one.Interface().(walkable))
		}
	}
}

// Extremes of every numeric kind survive, signed ones in both directions.
func TestWireNumericExtremes(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	roundTrip(t, &Request{Op: 255, Seq: ^uint64(0), Size: -1 << 63, Stream: -1, TaskSize: maxInt,
		GridX: -maxInt - 1, Version: ^uint32(0), Deadline: 1<<63 - 1, OpID: 1 << 63})
	roundTrip(t, &Reply{Code: 255, Load: -1, LoadSeq: 127, Token: 128})
}

// Every payload that is not the one encoding of a message is refused as
// corrupt.
func TestWireRefusesNonCanonicalPayloads(t *testing.T) {
	good := encodeWire(&Request{Op: OpMalloc, Seq: 7, Size: 4096})
	for name, payload := range map[string][]byte{
		"empty":                  {},
		"truncated":              good[:len(good)-1],
		"trailing byte":          append(append([]byte(nil), good...), 0),
		"unknown mask bit":       {0x80, 0x80, 0x80, 0x01}, // bit 21 of a 20-field message
		"non-minimal mask":       {0x81, 0x00, 0x06},
		"non-minimal value":      {0x01, 0x86, 0x00},
		"present but zero":       {0x01, 0x00},
		"empty present string":   {0x04, 0x00},
		"op overflows uint8":     {0x01, 0x80, 0x02},
		"varint overflows":       {0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"string past the end":    {0x04, 0x05, 'a', 'b'},
		"count past the end":     {0x80, 0x80, 0x04, 0x03, 0x00, 0x00},
		"varint past the end":    {0x02, 0x80},
		"item with unknown bits": {0x80, 0x80, 0x04, 0x01, 0x80, 0x20},
	} {
		var r Request
		if err := decodeWire(payload, &r); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s (% x): err = %v, want ErrFrameCorrupt", name, payload, err)
		}
	}
	var r Reply
	if err := decodeWire([]byte{0x80, 0x02, 0x00}, &r); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("reply whose present Entries has no element: err = %v", err)
	}
}

// A declared length is not an allocation: a header that claims the largest
// frame, then a little of it, then the end, costs the reader a buffer the
// size of what arrived, not the frame.
func TestWireHostileLengthAllocatesNothing(t *testing.T) {
	hdr := binary.AppendUvarint(nil, maxWirePayload)
	a, b := net.Pipe()
	conn := NewConn(b)
	defer conn.Close()
	go func() {
		_, _ = a.Write(hdr)
		_, _ = a.Write(make([]byte, 64<<10))
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := conn.RecvRequest()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("err = %v, want ErrFrameTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a header declaring %d bytes allocated %d", maxWirePayload, grew)
	}

	// One past the bound is refused from the header alone.
	r := wireReader{r: bytes.NewReader(binary.AppendUvarint(nil, maxWirePayload+1))}
	if _, err := r.next(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized header: err = %v, want ErrFrameCorrupt", err)
	}
}

// Frames of every size arrive whole however the transport splits them, and
// back-to-back frames in one read come apart.
func TestWireReaderReassembles(t *testing.T) {
	var stream []byte
	var want []*Request
	for i, size := range []int{0, 1, 100, readBufSize, 3*readBufSize + 7, keptBufSize + 1, 10} {
		r := &Request{Op: OpMemcpyH2D, Seq: uint64(i + 1), Data: bytes.Repeat([]byte{byte(i + 1)}, size)}
		if size == 0 {
			r.Data = nil
		}
		want = append(want, r)
		stream = append(stream, wireFrame(t, r)...)
	}
	for _, chunk := range []int{1, 3, 4096, len(stream)} {
		rd := wireReader{r: &chunked{b: stream, n: chunk}}
		for i, w := range want {
			payload, err := rd.next()
			if err != nil {
				t.Fatalf("chunk %d, frame %d: %v", chunk, i, err)
			}
			var got Request
			if err := decodeWire(payload, &got); err != nil || !reflect.DeepEqual(&got, w) {
				t.Fatalf("chunk %d, frame %d: decoded %d bytes of data, err %v", chunk, i, len(got.Data), err)
			}
		}
		if _, err := rd.next(); err != io.EOF {
			t.Fatalf("chunk %d: after the last frame: %v, want io.EOF", chunk, err)
		}
		if len(rd.buf) > keptBufSize {
			t.Fatalf("chunk %d: kept a %d-byte buffer after the bulk frame", chunk, len(rd.buf))
		}
	}
}

// chunked reads at most n bytes at a time.
type chunked struct {
	b []byte
	n int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[k:]
	return k, nil
}

func sampleRequests() []*Request {
	return []*Request{
		{Op: OpHello, Seq: 1, Proc: "bench", Version: ProtocolVersion},
		{Op: OpLaunch, Seq: 2, Token: 1, TaskSize: 4, OpID: 1},
		{Op: OpMemcpyH2D, Seq: 3, Buf: 2, Size: 8, Data: []byte("12345678")},
		{Op: OpSynchronize, Seq: 4, Stream: -1},
		{Op: OpLaunchBatch, Seq: 5, Deadline: 1 << 60, Batch: []BatchItem{
			{Src: true, OpID: 1, Source: "__global__ void k(int n) {}", Kernel: "k", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1},
			{Src: true, OpID: 2, SrcRef: 1, Kernel: "k", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1},
			{Token: 3, TaskSize: 4, OpID: 3},
		}},
	}
}

func sampleReplies() []*Reply {
	return []*Reply{
		{Seq: 9, Session: 2, Token: 0xfeed, Dup: true},
		{Seq: 3, Code: codeOOM, Err: "out of memory"},
		{Seq: 4, Data: []byte{1, 2, 3}, Entries: []string{"k", ""}},
		{Seq: 5, Load: 3, LoadSeq: 11},
		{Seq: 6, Acks: []BatchAck{{OpID: 1, Entries: []string{"k"}, Degraded: true}, {OpID: 2, Code: codeQuota, Err: "quota"}}},
	}
}

func FuzzWireRequest(f *testing.F) {
	for _, r := range sampleRequests() {
		f.Add(encodeWire(r))
	}
	f.Add([]byte{0x80, 0x80, 0x04, 0x7f, 0x00}) // a batch count the bytes cannot hold
	f.Fuzz(func(t *testing.T, payload []byte) { fuzzWire[Request](t, payload) })
}

func FuzzWireReply(f *testing.F) {
	for _, r := range sampleReplies() {
		f.Add(encodeWire(r))
	}
	f.Add([]byte{0x80, 0x01, 0x7f}) // an entry count the bytes cannot hold
	f.Fuzz(func(t *testing.T, payload []byte) { fuzzWire[Reply](t, payload) })
}

// fuzzWire holds the decoder to its contract on an arbitrary payload: it
// does not panic, it refuses only as corrupt, it allocates in proportion to
// the bytes present — at most one slice element's size per byte, since every
// element takes at least a byte, plus a fixed allowance for formatting an
// error the first time — and whatever it accepts encodes back to the same
// bytes. The payload is also read as a stream of frames, which
// ends in a classified error.
func fuzzWire[T any, P interface {
	*T
	walkable
}](t *testing.T, payload []byte) {
	perByte := uint64(max(unsafe.Sizeof(BatchItem{}), unsafe.Sizeof(BatchAck{})))
	bound := uint64(len(payload))*perByte + 64<<10

	m := P(new(T))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeWire(payload, m)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), grew, bound)
	}
	if err != nil {
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("unclassified decode error: %v", err)
		}
	} else if again := encodeWire(m); !bytes.Equal(again, payload) {
		t.Fatalf("accepted % x, which re-encodes to % x", payload, again)
	}

	rd := wireReader{r: bytes.NewReader(payload)}
	for {
		frame, err := rd.next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("unclassified stream error: %v", err)
			}
			return
		}
		m := P(new(T))
		if err := decodeWire(frame, m); err == nil && !bytes.Equal(encodeWire(m), frame) {
			t.Fatalf("frame % x re-encodes differently", frame)
		}
	}
}
