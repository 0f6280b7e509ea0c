package httpserve

import (
	"fmt"
	"unicode/utf8"

	pathdb "repro"
)

// appendPairLines appends one NDJSON line per pair of a result batch,
// resolving names against g, the graph of the snapshot that produced it.
// A pair g has no name for ends the batch with pathdb.ErrGraphMismatch.
func appendPairLines(b []byte, pairs []pathdb.Pair, g *pathdb.Graph) ([]byte, error) {
	names := g.NodeNames()
	for _, p := range pairs {
		if int(p.Src) >= len(names) || int(p.Dst) >= len(names) {
			return b, fmt.Errorf("httpserve: naming pair (%d,%d): %w", p.Src, p.Dst, pathdb.ErrGraphMismatch)
		}
		b = appendPairLine(b, names[p.Src], names[p.Dst])
	}
	return b, nil
}

// appendPairLine appends one streamed result pair, newline included, in
// exactly the bytes json.Encoder.Encode(pairLine{src, dst}) writes —
// without the reflection and per-call buffer of the encoder, which the
// per-pair path of /query and /execute cannot afford (FuzzPairLine holds
// the two byte-identical).
func appendPairLine(b []byte, src, dst string) []byte {
	b = append(b, `{"src":`...)
	b = appendJSONString(b, src)
	b = append(b, `,"dst":`...)
	b = appendJSONString(b, dst)
	return append(b, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes encoding/json copies into a string verbatim
// under its default HTML-safe escaping: printable ASCII except the quote,
// the backslash, and <, >, &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string literal with encoding/json's
// escapes: \" \\ \b \f \n \r \t, \u00XX for the other control bytes and
// for <, >, &, \u2028 and \u2029 for the line and paragraph separators,
// and \ufffd for each byte of invalid UTF-8. A name that needs none of
// them — the common case — costs one scan and one copy.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
