// Wire codec for the command channel (ProtocolVersion 3). Every Request and
// Reply travels as one frame,
//
//	[uvarint payload length][payload]
//
// and a payload is one message: a uvarint presence mask whose bit i is set
// when the message's i-th field is non-zero, then the non-zero fields in
// declaration order. Unsigned integers are uvarints and signed ones zig-zag
// uvarints; a string or []byte is a uvarint length and its bytes; a slice of
// strings or of messages is a uvarint count and its elements (strings as a
// length and the bytes, messages nested the same way); a bool is its mask
// bit alone. Each message's field list is written once, in a walk method
// that the encoder and the decoder both run, so the two cannot disagree on
// order.
//
// Decoding is strict: a payload must be the one encoding of what it decodes
// to. Truncation, trailing bytes, unknown mask bits, non-minimal varints, a
// present field whose value is zero, values that overflow their field, and
// counts larger than the bytes left are refused with ErrFrameCorrupt. The
// command channel carries no checksum (it never did), so these checks are
// there for a peer that does not speak the protocol, not for bit rot.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// maxWirePayload bounds one command frame's payload. A remote memcpy carries
// its bytes inline, so the bound is the largest single transfer, not
// maxFramePayload: the journal's bound is for records.
const maxWirePayload = 1 << 30

const (
	// readBufSize is a connection's first read buffer; it doubles only when
	// full, so the buffer never exceeds twice the bytes that arrived.
	readBufSize = 4 << 10
	// keptBufSize is the largest read or write buffer a connection keeps
	// between frames; a bulk transfer's buffer is dropped after its frame.
	keptBufSize = 64 << 10
	// A decoder interns strings up to maxNameLen bytes, and keeps up to
	// maxNames of them before it starts its table afresh.
	maxNameLen = 64
	maxNames   = 256
)

// walkable is a message the codec carries: walk visits its fields in wire
// order.
type walkable interface{ walk(w *walker) }

type walkMode uint8

const (
	modeMask  walkMode = iota // collect the presence mask
	modeWrite                 // append the present fields
	modeRead                  // decode the present fields
)

// walker runs a message's field list in one of three modes. Writing is two
// walks, the mask and then the fields; reading is one. A read error is
// sticky: every later field reads as absent.
type walker struct {
	mode walkMode
	b    []byte // appended to when writing; b[off:] is unread when reading
	off  int
	mask uint64 // the current message's presence mask
	bit  uint   // the next field's bit in it
	err  error
	// names interns the short strings a reader decodes (kernel and
	// entry-point names, which every item or ack of a frame repeats), across
	// frames; it survives decode's reset.
	names map[string]string
}

// message writes or reads one nested message: its mask, then its fields.
func (w *walker) message(m walkable) {
	mode, mask, bit := w.mode, w.mask, w.bit
	if mode == modeWrite {
		w.mode, w.mask, w.bit = modeMask, 0, 0
		m.walk(w)
		w.b = binary.AppendUvarint(w.b, w.mask)
		w.mode = modeWrite
	} else {
		w.mask = w.uvarint()
	}
	w.bit = 0
	m.walk(w)
	if mode == modeRead && w.mask>>w.bit != 0 {
		w.fail("mask %#x sets bits past the message's %d fields", w.mask, w.bit)
	}
	w.mode, w.mask, w.bit = mode, mask, bit
}

// present moves to the next field and reports whether it is to be written
// (it is non-zero) or read (its mask bit is set). The mask pass only records.
func (w *walker) present(nonZero bool) bool {
	bit := uint64(1) << w.bit
	w.bit++
	switch w.mode {
	case modeMask:
		if nonZero {
			w.mask |= bit
		}
		return false
	case modeWrite:
		return nonZero
	default:
		return w.mask&bit != 0 && w.err == nil
	}
}

// num writes v, or reads a value in 1..max; ok is true only for a read.
func (w *walker) num(v, max uint64) (x uint64, ok bool) {
	if !w.present(v != 0) {
		return 0, false
	}
	if w.mode == modeWrite {
		w.b = binary.AppendUvarint(w.b, v)
		return 0, false
	}
	x = w.uvarint()
	switch {
	case w.err != nil:
		return 0, false
	case x == 0:
		w.fail("field %d is present but zero", w.bit-1)
		return 0, false
	case x > max:
		w.fail("field %d holds %d, above its type's %d", w.bit-1, x, max)
		return 0, false
	}
	return x, true
}

func (w *walker) u8(p *uint8) {
	if x, ok := w.num(uint64(*p), math.MaxUint8); ok {
		*p = uint8(x)
	}
}

func (w *walker) u32(p *uint32) {
	if x, ok := w.num(uint64(*p), math.MaxUint32); ok {
		*p = uint32(x)
	}
}

func (w *walker) u64(p *uint64) {
	if x, ok := w.num(*p, math.MaxUint64); ok {
		*p = x
	}
}

func (w *walker) i64(p *int64) {
	if x, ok := w.num(zigzag(*p), math.MaxUint64); ok {
		*p = unzigzag(x)
	}
}

func (w *walker) int(p *int) {
	if x, ok := w.num(zigzag(int64(*p)), math.MaxUint64); ok {
		v := unzigzag(x)
		if int64(int(v)) != v {
			w.fail("field %d holds %d, which overflows int", w.bit-1, v)
			return
		}
		*p = int(v)
	}
}

func (w *walker) flag(p *bool) {
	if w.present(*p) && w.mode == modeRead {
		*p = true
	}
}

func (w *walker) str(p *string) {
	if !w.present(*p != "") {
		return
	}
	if w.mode == modeWrite {
		w.b = append(binary.AppendUvarint(w.b, uint64(len(*p))), *p...)
		return
	}
	if b := w.take(w.nonEmptyCount()); len(b) > 0 {
		*p = w.text(b)
	}
}

func (w *walker) data(p *[]byte) {
	if !w.present(len(*p) != 0) {
		return
	}
	if w.mode == modeWrite {
		w.b = append(binary.AppendUvarint(w.b, uint64(len(*p))), *p...)
		return
	}
	if b := w.take(w.nonEmptyCount()); len(b) > 0 {
		*p = append([]byte(nil), b...)
	}
}

// strs carries a slice of strings; its elements may be empty.
func (w *walker) strs(p *[]string) {
	if !w.present(len(*p) != 0) {
		return
	}
	if w.mode == modeWrite {
		w.b = binary.AppendUvarint(w.b, uint64(len(*p)))
		for _, s := range *p {
			w.b = append(binary.AppendUvarint(w.b, uint64(len(s))), s...)
		}
		return
	}
	n := w.nonEmptyCount()
	if n == 0 {
		return
	}
	s := make([]string, n)
	for i := range s {
		s[i] = w.text(w.take(w.count()))
	}
	*p = s
}

// text returns b as a string: a short one from the intern table, so a name a
// frame repeats costs one allocation per connection, not one per use.
func (w *walker) text(b []byte) string {
	if len(b) > maxNameLen {
		return string(b)
	}
	if s, ok := w.names[string(b)]; ok {
		return s
	}
	if len(w.names) >= maxNames || w.names == nil {
		w.names = make(map[string]string)
	}
	s := string(b)
	w.names[s] = s
	return s
}

// walkSlice carries a slice of messages.
func walkSlice[T any, P interface {
	*T
	walkable
}](w *walker, p *[]T) {
	if !w.present(len(*p) != 0) {
		return
	}
	if w.mode == modeWrite {
		w.b = binary.AppendUvarint(w.b, uint64(len(*p)))
		for i := range *p {
			w.message(P(&(*p)[i]))
		}
		return
	}
	n := w.nonEmptyCount()
	if n == 0 {
		return
	}
	s := make([]T, n)
	for i := range s {
		w.message(P(&s[i]))
	}
	*p = s
}

// uvarint reads one minimally encoded uvarint.
func (w *walker) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	if w.off < len(w.b) && w.b[w.off] < 0x80 { // one byte: most of a frame
		w.off++
		return uint64(w.b[w.off-1])
	}
	v, n := binary.Uvarint(w.b[w.off:])
	switch {
	case n == 0:
		w.fail("payload ends inside a varint")
		return 0
	case n < 0:
		w.fail("varint overflows 64 bits")
		return 0
	case n > 1 && w.b[w.off+n-1] == 0:
		w.fail("non-minimal varint")
		return 0
	}
	w.off += n
	return v
}

// count reads a length or element count. Each byte or element takes at least
// one byte of the payload, so a count above the bytes left is refused before
// anything is allocated for it.
func (w *walker) count() int {
	n := w.uvarint()
	if left := uint64(len(w.b) - w.off); n > left {
		w.fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// nonEmptyCount reads the count of a present field, which cannot be zero.
func (w *walker) nonEmptyCount() int {
	n := w.count()
	if n == 0 {
		w.fail("field %d is present but empty", w.bit-1)
	}
	return n
}

// take consumes n bytes that count has checked are there.
func (w *walker) take(n int) []byte {
	b := w.b[w.off : w.off+n]
	w.off += n
	return b
}

func (w *walker) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: wire: "+format, append([]any{ErrFrameCorrupt}, args...)...)
	}
}

// encodeFrame encodes m as one frame in w's buffer and returns it.
func (w *walker) encodeFrame(m walkable) ([]byte, error) {
	// The payload is written behind a slot wide enough for any length
	// varint, and the length goes at the slot's end, so a frame is one slice.
	const slot = binary.MaxVarintLen64
	w.b = append(w.b[:0], make([]byte, slot)...)
	w.mode = modeWrite
	w.message(m)
	n := len(w.b) - slot
	if n > maxWirePayload {
		return nil, fmt.Errorf("ipc: %d-byte frame exceeds the wire's max %d", n, maxWirePayload)
	}
	start := slot - (bits.Len64(uint64(n)|1)+6)/7
	binary.PutUvarint(w.b[start:], uint64(n))
	return w.b[start:], nil
}

// decode reads payload, which must hold exactly one message, into m. Strings
// and bytes are copied out, so the payload's buffer may be reused.
func (w *walker) decode(payload []byte, m walkable) error {
	*w = walker{mode: modeRead, b: payload, names: w.names}
	w.message(m)
	if w.err == nil && w.off != len(payload) {
		w.fail("%d trailing bytes", len(payload)-w.off)
	}
	err := w.err
	*w = walker{names: w.names} // let go of the payload: it may be a bulk frame's
	return err
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// wireReader splits a byte stream into frames through one buffer it reuses:
// buf[pos:end] holds bytes received and not yet returned.
type wireReader struct {
	r        io.Reader
	buf      []byte
	pos, end int
}

// next returns the next frame's payload, valid until the following call. A
// stream that ends between frames returns io.EOF, one that ends inside a
// frame ErrFrameTruncated, and a length header that is not a minimal uvarint
// up to maxWirePayload ErrFrameCorrupt; a transport error is returned as is.
func (r *wireReader) next() ([]byte, error) {
	if r.pos == r.end {
		r.pos, r.end = 0, 0
		if len(r.buf) > keptBufSize {
			r.buf = nil
		}
	}
	var n uint64
	for {
		v, k := binary.Uvarint(r.buf[r.pos:r.end])
		if k < 0 || k > 1 && r.buf[r.pos+k-1] == 0 || k > 0 && v > maxWirePayload {
			return nil, fmt.Errorf("%w: wire: bad frame length header % x", ErrFrameCorrupt, r.buf[r.pos:r.pos+min(r.end-r.pos, binary.MaxVarintLen64)])
		}
		if k > 0 {
			r.pos += k
			n = v
			break
		}
		if err := r.fill(r.end - r.pos + 1); err != nil {
			if err == io.EOF && r.pos == r.end {
				return nil, io.EOF
			}
			return nil, r.truncated(err)
		}
	}
	if err := r.fill(int(n)); err != nil {
		return nil, r.truncated(err)
	}
	payload := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return payload, nil
}

// fill reads until need bytes are buffered, growing the buffer only once it
// is full of bytes that arrived, so a declared length alone allocates nothing.
func (r *wireReader) fill(need int) error {
	for r.end-r.pos < need {
		if r.end == len(r.buf) {
			if r.pos > 0 {
				r.end = copy(r.buf, r.buf[r.pos:r.end])
				r.pos = 0
			}
			if r.end == len(r.buf) {
				grown := make([]byte, max(readBufSize, min(2*len(r.buf), need)))
				copy(grown, r.buf[:r.end])
				r.buf = grown
			}
		}
		k, err := r.r.Read(r.buf[r.end:])
		r.end += k
		if err != nil && r.end-r.pos < need {
			return err
		}
	}
	return nil
}

func (r *wireReader) truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: wire: stream ended inside a frame", ErrFrameTruncated)
	}
	return err
}

// walk lists Request's fields in wire order.
func (r *Request) walk(w *walker) {
	w.u8((*uint8)(&r.Op))
	w.u64(&r.Seq)
	w.str(&r.Proc)
	w.i64(&r.Size)
	w.u64(&r.Buf)
	w.data(&r.Data)
	w.u64(&r.Token)
	w.int(&r.Stream)
	w.int(&r.TaskSize)
	w.str(&r.Source)
	w.str(&r.Kernel)
	w.int(&r.GridX)
	w.int(&r.GridY)
	w.int(&r.BlockX)
	w.int(&r.BlockY)
	w.u64(&r.OpID)
	walkSlice(w, &r.Batch)
	w.u64(&r.SessionToken)
	w.u32(&r.Version)
	w.i64(&r.Deadline)
}

// walk lists Reply's fields in wire order.
func (r *Reply) walk(w *walker) {
	w.u64(&r.Seq)
	w.str(&r.Err)
	w.u8((*uint8)(&r.Code))
	w.u64(&r.Session)
	w.flag(&r.Degraded)
	w.u64(&r.Buf)
	w.u64(&r.DevPtr)
	w.data(&r.Data)
	w.strs(&r.Entries)
	w.u64(&r.Token)
	w.flag(&r.Dup)
	w.flag(&r.Recovered)
	w.i64(&r.Load)
	w.u64(&r.LoadSeq)
	walkSlice(w, &r.Acks)
}

// walk lists BatchItem's fields in wire order.
func (it *BatchItem) walk(w *walker) {
	w.flag(&it.Src)
	w.u64(&it.Token)
	w.int(&it.TaskSize)
	w.int(&it.Stream)
	w.u64(&it.OpID)
	w.str(&it.Source)
	w.int(&it.SrcRef)
	w.str(&it.Kernel)
	w.int(&it.GridX)
	w.int(&it.GridY)
	w.int(&it.BlockX)
	w.int(&it.BlockY)
}

// walk lists BatchAck's fields in wire order.
func (a *BatchAck) walk(w *walker) {
	w.u64(&a.OpID)
	w.u8((*uint8)(&a.Code))
	w.str(&a.Err)
	w.flag(&a.Degraded)
	w.strs(&a.Entries)
	w.flag(&a.Dup)
}
