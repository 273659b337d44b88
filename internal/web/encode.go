package web

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"precis"
	"precis/internal/storage"
)

// maxPooledBuf is the largest scratch buffer the pool keeps; a bigger one is
// left to the collector, so one huge answer cannot pin its memory.
const maxPooledBuf = 1 << 20

// bufPool holds the scratch buffers response bodies are assembled in.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// putBuf returns a scratch buffer, grown to b by its user, to the pool.
func putBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*p = b[:0]
	bufPool.Put(p)
}

// appendAnswer appends the /api/search body of ans to dst: byte for byte what
// json.NewEncoder(w).Encode(buildAPIAnswer(ans)) writes, trailing newline
// included, with the display-column values taken straight from the tuples of
// the result database instead of through a [][]string copy of it
// (TestSearchBodyMatchesEncodingJSON holds the two together).
func appendAnswer(dst []byte, ans *precis.Answer) ([]byte, error) {
	dst = append(dst, `{"terms":`...)
	dst = appendJSONStrings(dst, ans.Terms)
	if len(ans.Unmatched) > 0 {
		dst = append(dst, `,"unmatched":`...)
		dst = appendJSONStrings(dst, ans.Unmatched)
	}
	dst = append(dst, `,"narrative":`...)
	dst = appendJSONString(dst, ans.Narrative)

	dst = append(dst, `,"relations":`...)
	shown := 0
	for _, rel := range ans.Database.RelationNames() {
		cols := ans.Result.DisplayColumns(rel)
		if len(cols) == 0 {
			continue
		}
		if shown == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		shown++
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, rel)
		dst = append(dst, `,"columns":`...)
		dst = appendJSONStrings(dst, cols)
		dst = append(dst, `,"rows":`...)
		dst = appendRows(dst, ans.Database.Relation(rel), cols)
		dst = append(dst, '}')
	}
	if shown == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, ']')
	}

	dst = append(dst, `,"stats":{"relations":`...)
	dst = strconv.AppendInt(dst, int64(ans.Database.NumRelations()), 10)
	dst = append(dst, `,"tuples":`...)
	dst = strconv.AppendInt(dst, int64(ans.Database.TotalTuples()), 10)
	dst = append(dst, `,"queries":`...)
	dst = strconv.AppendInt(dst, int64(ans.Stats.Queries), 10)
	dst = append(dst, '}')
	if ans.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if ans.Truncation != "" {
		dst = append(dst, `,"truncation":`...)
		dst = appendJSONString(dst, string(ans.Truncation))
	}
	if ans.FromCache {
		dst = append(dst, `,"from_cache":true`...)
	}
	if ans.Trace != nil {
		trace, err := json.Marshal(ans.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, trace...)
	}
	return append(dst, "}\n"...), nil
}

// appendRows appends the display columns of every tuple of r as an array of
// string arrays, null for an empty relation.
func appendRows(dst []byte, r *storage.Relation, cols []string) []byte {
	if r.Len() == 0 {
		return append(dst, "null"...)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.Schema().ColumnIndex(c)
	}
	sep := byte('[')
	r.Scan(func(t storage.Tuple) bool {
		dst = append(dst, sep, '[')
		sep = ','
		for i, ci := range idx {
			if i > 0 {
				dst = append(dst, ',')
			}
			if v := t.Values[ci]; v.Kind() == storage.KindString {
				dst = appendJSONString(dst, v.AsString())
			} else {
				// Numbers, booleans and NULL: nothing JSON escapes.
				dst = append(dst, '"')
				dst = v.AppendText(dst)
				dst = append(dst, '"')
			}
		}
		dst = append(dst, ']')
		return true
	})
	return append(dst, ']')
}

// appendJSONStrings appends a string array, null for a nil one.
func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := range safe {
		safe[c] = c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// Byte-wise constants of the word-at-a-time test: each byte 0x01, each 0x80.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// plainWord reports whether none of the eight bytes of x needs a look: none
// is 0x80 or above (multi-byte UTF-8, or invalid), below 0x20, `"` or `&`
// (0x22 and 0x26, one once bit 2 is set), `<` or `>` (0x3c and 0x3e, one once
// bit 1 is set), or `\`. A byte below 0x20 shows as a borrow out of it in
// x - 0x20, a byte equal to c as a zero byte of x ^ c (the has-zero-byte
// test: exact for the word as a whole).
func plainWord(x uint64) bool {
	return (x|(x-0x20*lsb)|zeroByte((x|0x04*lsb)^'&'*lsb)|zeroByte((x|0x02*lsb)^'>'*lsb)|zeroByte(x^'\\'*lsb))&msb == 0
}

// zeroByte sets the high bit of some byte if x has a zero byte, and of none
// if it has not.
func zeroByte(x uint64) uint64 { return (x - lsb) &^ x }

// le32 is the first four bytes of s, little-endian.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// appendJSONString appends s as a JSON string with the escaping of
// encoding/json at its default (EscapeHTML on): `"` and `\` backslashed,
// \b \f \n \r \t by name, the other controls and < > & as \u00XX, the line
// and paragraph separators U+2028/9 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as the six bytes \ufffd. Eight bytes are checked a step — the
// last few within the last eight of s, a shorter s as two halves that may
// overlap, or as its first, middle and last bytes — and only a word that holds
// a byte to look at is walked a byte, or a rune, at a time.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		var x uint64
		switch n := len(s) - i; {
		case n >= 8:
			x = le32(s[i:]) | le32(s[i+4:])<<32
		case len(s) >= 8: // the tail, within the last word
			x = le32(s[len(s)-8:]) | le32(s[len(s)-4:])<<32
		case n >= 4: // a short s, in two halves that may overlap
			x = le32(s) | le32(s[len(s)-4:])<<32
		default: // a tiny s: its first, middle and last bytes, padded with spaces
			x = uint64(s[0]) | uint64(s[n/2])<<8 | uint64(s[n-1])<<16 | ' '*lsb&^0xffffff
		}
		end := min(i+8, len(s))
		if plainWord(x) {
			i = end
			continue
		}
		for i < end { // a rune may run past end
			if c := s[i]; c < utf8.RuneSelf {
				if jsonSafe[c] {
					i++
					continue
				}
				dst = append(dst, s[start:i]...)
				switch c {
				case '\\', '"':
					dst = append(dst, '\\', c)
				case '\b':
					dst = append(dst, '\\', 'b')
				case '\f':
					dst = append(dst, '\\', 'f')
				case '\n':
					dst = append(dst, '\\', 'n')
				case '\r':
					dst = append(dst, '\\', 'r')
				case '\t':
					dst = append(dst, '\\', 't')
				default:
					dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				}
				i++
				start = i
				continue
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\u202`...)
				dst = append(dst, hexDigits[r&0xF])
				start = i + size
			}
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
