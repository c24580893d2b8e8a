// Structured operational events: one line, key=value fields, machine-first.
// The supervisor, slated, and the fleetchaos harness all emit and parse
// daemon state transitions through this one format, so "what happened to
// member gpu1" is grep-able in production and assertable in tests.
package fleet

import (
	"fmt"
	"strconv"
	"strings"
)

// Event renders one structured line: "event=<kind> k1=v1 k2=v2 ...". Pairs
// are emitted in the order given; values that contain whitespace, quotes,
// or '=' are strconv-quoted so the line stays splittable on spaces.
func Event(kind string, kv ...string) string {
	var b strings.Builder
	b.WriteString("event=")
	b.WriteString(kind)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(kv[i+1]))
	}
	return b.String()
}

func quoteIfNeeded(v string) string {
	if v == "" || strings.ContainsAny(v, " \t\"=") {
		return strconv.Quote(v)
	}
	return v
}

// ParseEvent splits a structured line back into its kind and fields.
// Returns ok=false for lines that are not events (no "event=" first token),
// letting log consumers skim mixed output.
func ParseEvent(line string) (kind string, fields map[string]string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), "event=")
	if !ok {
		return "", nil, false
	}
	fields = map[string]string{}
	// First token is the kind; the rest are k=v, values possibly quoted.
	for i, tok := range splitTokens(rest) {
		if i == 0 {
			kind = tok
			continue
		}
		k, v, found := strings.Cut(tok, "=")
		if !found || k == "" {
			return "", nil, false
		}
		if uq, err := strconv.Unquote(v); err == nil && strings.HasPrefix(v, "\"") {
			v = uq
		}
		fields[k] = v
	}
	if kind == "" {
		return "", nil, false
	}
	return kind, fields, true
}

// splitTokens splits on spaces but keeps quoted values (which may contain
// spaces) attached to their key.
func splitTokens(s string) []string {
	var out []string
	for len(s) > 0 {
		s = strings.TrimLeft(s, " ")
		if s == "" {
			break
		}
		// Find the token end: a space outside quotes.
		inQuote := false
		end := len(s)
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '"':
				inQuote = !inQuote
			case '\\':
				if inQuote {
					i++
				}
			case ' ':
				if !inQuote {
					end = i
				}
			}
			if end != len(s) {
				break
			}
		}
		out = append(out, s[:end])
		s = s[end:]
	}
	return out
}

// Fmt formats common field values consistently across emitters.
func Fmt(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'f', 2, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return fmt.Sprintf("%x", x)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(v)
	}
}
