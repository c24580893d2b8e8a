package journal

import (
	"encoding/json"
	"math"
	"strconv"

	"slate/internal/ipc"
)

// appendRecord appends rec's JSON encoding to dst. The bytes are exactly
// json.Marshal(rec)'s — same field order, same omitempty rules, "k" always
// present — so the format has one definition (the struct tags on Record) and
// one decoder (json.Unmarshal); this is only the reflection-free way to
// produce it for the records the launch path writes thousands of times a
// second. Anything whose encoding is not plain digits, literals and
// printable ASCII is left to json.Marshal itself: a string that needs
// escaping, a SoloSec with any bit set (how omitempty treats -0 is
// json.Marshal's to say), or AdoptOps. On error dst is returned unextended.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	if needsMarshal(rec) {
		b, err := json.Marshal(rec)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendUint(dst, uint64(rec.Kind), 10)
	dst = appendUint(dst, `,"sess":`, rec.Sess)
	dst = appendUint(dst, `,"op":`, rec.OpID)
	dst = appendUint(dst, `,"tok":`, rec.Token)
	dst = appendString(dst, `,"proc":`, rec.Proc)
	dst = appendString(dst, `,"kernel":`, rec.Kernel)
	dst = appendTrue(dst, `,"src":true`, rec.Src)
	dst = appendInt(dst, `,"gx":`, rec.GridX)
	dst = appendInt(dst, `,"gy":`, rec.GridY)
	dst = appendInt(dst, `,"bx":`, rec.BlockX)
	dst = appendInt(dst, `,"by":`, rec.BlockY)
	dst = appendInt(dst, `,"task":`, rec.TaskSize)
	dst = appendInt(dst, `,"stream":`, rec.Stream)
	dst = appendTrue(dst, `,"deg":true`, rec.Degraded)
	if len(rec.Entries) != 0 {
		dst = append(dst, `,"entries":[`...)
		for i, e := range rec.Entries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendQuoted(dst, e)
		}
		dst = append(dst, ']')
	}
	dst = appendUint(dst, `,"code":`, uint64(rec.Code))
	dst = appendString(dst, `,"err":`, rec.Err)
	dst = appendString(dst, `,"action":`, rec.Action)
	dst = appendInt(dst, `,"class":`, rec.Class)
	dst = appendUint(dst, `,"max_op":`, rec.MaxOp)
	dst = appendString(dst, `,"lost":`, rec.Lost)
	return append(dst, '}'), nil
}

// needsMarshal reports whether rec holds a field appendRecord leaves to
// json.Marshal.
func needsMarshal(rec *Record) bool {
	return math.Float64bits(rec.SoloSec) != 0 || len(rec.AdoptOps) != 0 ||
		!plain(rec.Proc) || !plain(rec.Kernel) || !plain(rec.Err) ||
		!plain(rec.Action) || !plain(rec.Lost) || !allPlain(rec.Entries)
}

// appendFrame appends rec as one journal frame — header, then the JSON
// payload encoded in place behind it. On error dst is returned unextended.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	var hdr [ipc.FrameHeaderSize]byte
	out, err := appendRecord(append(dst, hdr[:]...), rec)
	if err != nil {
		return dst, err
	}
	ipc.SealFrame(out[start:])
	return out, nil
}

// plain reports whether json.Marshal writes s as itself between two quotes:
// printable ASCII with none of the bytes it escapes (quote, backslash, and
// the HTML-sensitive three). Everything else — control bytes, DEL, any
// multi-byte or invalid UTF-8 — takes the json.Marshal path.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func allPlain(ss []string) bool {
	for _, s := range ss {
		if !plain(s) {
			return false
		}
	}
	return true
}

// The field appenders below apply omitempty: a zero value appends nothing.
// key carries its leading comma, because "k" is always written first.

func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendQuoted(append(dst, key...), v)
}

// appendQuoted writes a plain string as JSON does: itself, between quotes.
func appendQuoted(dst []byte, s string) []byte {
	return append(append(append(dst, '"'), s...), '"')
}

func appendTrue(dst []byte, keyTrue string, v bool) []byte {
	if !v {
		return dst
	}
	return append(dst, keyTrue...)
}
