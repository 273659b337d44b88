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

// appendJSONString appends s as a JSON string with the escaping of
// encoding/json at its default (EscapeHTML on): `"` and `\` backslashed,
// \b \f \n \r \t by name, the other controls and < > & as \u00XX, the line
// and paragraph separators U+2028/9 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as the six bytes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
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
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
