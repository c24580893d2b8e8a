// Frame codec for Slate's durable byte streams: the daemon's write-ahead
// journal and checkpoint files. Every record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32C of payload][payload]
//
// so a reader can detect both a torn tail (the partial frame a crashing
// writer leaves behind) and bit rot (a payload whose checksum no longer
// matches). The two failure modes are distinguished by error identity:
// ErrFrameTruncated means the stream ended mid-frame, ErrFrameCorrupt means
// a complete frame failed its checksum — journal replay truncates at either.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameHeaderSize is the fixed per-frame overhead: length plus checksum.
const FrameHeaderSize = 8

// MaxFramePayload bounds a single frame so a corrupted length field cannot
// make a reader attempt a multi-gigabyte allocation.
const MaxFramePayload = 16 << 20

// Frame decode failures, distinguished so journal replay can report what it
// truncated.
var (
	// ErrFrameTruncated: the stream ended inside a frame header or payload —
	// the torn tail a crash mid-append leaves, or a command frame its peer
	// cut off.
	ErrFrameTruncated = errors.New("ipc: truncated frame")
	// ErrFrameCorrupt: a structurally complete frame whose payload fails its
	// CRC32C, or whose declared length is impossible; also a command frame
	// the wire codec refuses (wire.go).
	ErrFrameCorrupt = errors.New("ipc: corrupt frame")
)

// castagnoli is the CRC32C table (the polynomial used by iSCSI and ext4
// metadata checksums, with hardware support on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame for payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	var hdr [FrameHeaderSize]byte
	dst = append(append(dst, hdr[:]...), payload...)
	SealFrame(dst[start:])
	return dst
}

// SealFrame fills in the header of a frame built in place: frame is
// FrameHeaderSize reserved bytes followed by the payload, so an encoder can
// write the payload straight behind the header's slot and seal it afterwards
// instead of copying it out of a buffer of its own.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// ReadFrame reads one frame from r and returns its payload. A clean end of
// stream returns io.EOF; a stream ending mid-frame returns ErrFrameTruncated;
// a checksum mismatch or a declared length above MaxFramePayload returns
// ErrFrameCorrupt.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameWithin(r, MaxFramePayload) }

// ReadFrameWithin is ReadFrame with the caller's bound on the declared
// payload length. A reader that knows how many bytes its stream holds — a
// checkpoint file, whose writer frames a payload of any size — passes that,
// so it takes back every frame its writer sealed and still refuses, before
// allocating, a header that claims more.
func ReadFrameWithin(r io.Reader, max int64) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean boundary: no frame started
		}
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > max {
		return nil, fmt.Errorf("%w: declared payload %d exceeds max %d", ErrFrameCorrupt, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, frame declares %08x", ErrFrameCorrupt, got, want)
	}
	return payload, nil
}

// DecodeFrame decodes the first frame in b, returning its payload and the
// remaining bytes. Unlike ReadFrame it preserves the stream position on a
// checksum failure: a structurally complete frame that fails its CRC32C
// returns ErrFrameCorrupt with rest pointing past the bad frame, so a
// caller with per-entry framing (the profile table) can quarantine the
// entry and keep walking. An impossible declared length loses the frame
// boundary and returns rest == nil; a buffer ending mid-frame returns
// ErrFrameTruncated; an empty buffer returns io.EOF.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, io.EOF
	}
	if len(b) < FrameHeaderSize {
		return nil, nil, ErrFrameTruncated
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxFramePayload {
		return nil, nil, fmt.Errorf("%w: declared payload %d exceeds max %d", ErrFrameCorrupt, n, MaxFramePayload)
	}
	end := FrameHeaderSize + int(n)
	if len(b) < end {
		return nil, nil, ErrFrameTruncated
	}
	payload, rest = b[FrameHeaderSize:end], b[end:]
	want := binary.LittleEndian.Uint32(b[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, rest, fmt.Errorf("%w: crc32c %08x, frame declares %08x", ErrFrameCorrupt, got, want)
	}
	return payload, rest, nil
}
