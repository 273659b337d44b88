package invidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"
	"strings"
	"unsafe"

	"precis/internal/storage"
)

// Index snapshot codec ("PRCIDX01"): a versioned, checksummed rendering of
// the postings map, persisted beside full database snapshots so an open
// can load the index in O(read) instead of re-tokenizing every tuple. The
// file stamps both a format version and TokenizerVersion — if either
// disagrees with the running binary (a tokenizer change silently changes
// every posting), or the stamped generation is not the snapshot being
// recovered, or the checksum fails, the caller falls back to a rebuild.
// Synonyms are deliberately not persisted: the engine replays them from
// the recovered snapshot data, the single source of truth.
//
// Layout: magic, then uvarint/string fields — format version, tokenizer
// version, base generation, token count, and per token (sorted) its
// posting locations (sorted by relation then attribute) each with its
// ascending tuple ids — closed by a CRC32C (Castagnoli, little endian) of
// every preceding byte.
const (
	indexMagic = "PRCIDX01"
	// indexFormatVersion guards the byte layout below.
	indexFormatVersion = 1
	// TokenizerVersion stamps the tokenizer the postings were built with.
	// Bump it whenever Tokenize's observable behavior changes — a stale
	// stamp makes every persisted index fall back to a rebuild instead of
	// serving postings that no longer match query-time tokenization.
	TokenizerVersion = 1
)

var indexCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot renders the index as snapshot bytes stamped with gen (the
// full database snapshot generation it matches), sized first and written
// into one buffer made at that size. Deterministic: identical postings
// produce identical bytes.
func (ix *Index) EncodeSnapshot(gen uint64) []byte {
	tokens := make([]string, 0, len(ix.postings))
	size := len(indexMagic) + 3*binary.MaxVarintLen64 + uvarintSize(uint64(len(ix.postings))) + 4
	for tok, lists := range ix.postings {
		tokens = append(tokens, tok)
		size += entrySize(tok, lists)
	}
	sort.Strings(tokens)

	out := appendHeader(make([]byte, 0, size), gen, len(tokens))
	for _, tok := range tokens {
		out = appendEntry(out, tok, ix.postings[tok])
	}
	sum := crc32.Checksum(out, indexCRCTable)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// appendHeader appends the magic and the header: format and tokenizer
// versions, generation stamp and token count.
func appendHeader(dst []byte, gen uint64, tokens int) []byte {
	dst = append(dst, indexMagic...)
	dst = binary.AppendUvarint(dst, indexFormatVersion)
	dst = binary.AppendUvarint(dst, TokenizerVersion)
	dst = binary.AppendUvarint(dst, gen)
	return binary.AppendUvarint(dst, uint64(tokens))
}

// appendEntry appends one token's entry: the token, its location count, and
// per location the relation, the attribute, the id count and the ids.
func appendEntry(dst []byte, tok string, lists []locList) []byte {
	dst = appendIndexStr(dst, tok)
	dst = binary.AppendUvarint(dst, uint64(len(lists)))
	for _, l := range lists {
		dst = appendIndexStr(dst, l.key.rel)
		dst = appendIndexStr(dst, l.key.attr)
		dst = binary.AppendUvarint(dst, uint64(len(l.ids)))
		prev := uint64(0)
		for _, id := range l.ids {
			// Gap-encode ascending ids: small varints for dense postings.
			dst = binary.AppendUvarint(dst, uint64(id)-prev)
			prev = uint64(id)
		}
	}
	return dst
}

// entrySize is the length of appendEntry's bytes.
func entrySize(tok string, lists []locList) int {
	size := strSize(tok) + uvarintSize(uint64(len(lists)))
	for _, l := range lists {
		size += strSize(l.key.rel) + strSize(l.key.attr) + uvarintSize(uint64(len(l.ids)))
		prev := uint64(0)
		for _, id := range l.ids {
			size += uvarintSize(uint64(id) - prev)
			prev = uint64(id)
		}
	}
	return size
}

func appendIndexStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

// DecodeSnapshot parses index snapshot bytes into an Index bound to db,
// returning the generation stamp the file carries. Any defect — bad magic,
// checksum mismatch, version skew (format or tokenizer), truncation, or a
// count the input cannot back, a token without locations, locations out of
// order or repeated, an empty list, a zero gap or an id past MaxTupleID — is an
// error; callers respond by rebuilding, never by trusting partial postings. The decoder is bounds-checked
// throughout: it never panics and never allocates more than the input
// justifies, whatever the bytes claim.
func DecodeSnapshot(raw []byte, db *storage.Database) (*Index, uint64, error) {
	r, err := openSnapshot(raw)
	if err != nil {
		return nil, 0, err
	}
	ix := &Index{db: db, postings: make(map[string][]locList, r.tokens)}
	var e entry
	for i := 0; i < r.tokens; i++ {
		if err := r.next(&e, i); err != nil {
			return nil, 0, err
		}
		lists := make([]locList, len(e.lists))
		for j, l := range e.lists {
			ids := make(storage.IDList, len(l.ids))
			copy(ids, l.ids)
			lists[j] = locList{key: postingKey{strings.Clone(l.key.rel), strings.Clone(l.key.attr)}, ids: ids}
			ix.ids += len(ids)
		}
		ix.lists += len(lists)
		if _, dup := ix.postings[e.tok]; dup {
			return nil, 0, fmt.Errorf("invidx: duplicate token %q in index snapshot", e.tok)
		}
		ix.postings[strings.Clone(e.tok)] = lists
	}
	if err := r.end(); err != nil {
		return nil, 0, err
	}
	return ix, r.gen, nil
}

// snapshotReader reads an index snapshot's entries in file order, checking
// each as DecodeSnapshot does: it is the reading half of DecodeSnapshot and of
// Patch.Apply.
type snapshotReader struct {
	d      indexDec // over the body after the magic
	gen    uint64   // the generation stamp
	tokens int      // the entries the header declares
}

// entry is one token's postings as a snapshot holds them. Its strings alias
// the snapshot's bytes and its lists and ids are reused by the next read:
// whoever keeps any of it copies it.
type entry struct {
	tok   string
	lists []locList
	ids   storage.IDList
	// loose: some varint of the entry is longer than it needs to be, so its
	// bytes are not what appendEntry writes.
	loose bool
}

// openSnapshot checks raw's magic, checksum and header.
func openSnapshot(raw []byte) (*snapshotReader, error) {
	if len(raw) < len(indexMagic)+4 || string(raw[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("invidx: not an index snapshot (bad magic)")
	}
	body := raw[:len(raw)-4]
	stored := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.Checksum(body, indexCRCTable); got != stored {
		return nil, fmt.Errorf("invidx: index snapshot checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	r := &snapshotReader{d: indexDec{b: body[len(indexMagic):]}}
	d := &r.d
	format, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	if format != indexFormatVersion {
		return nil, fmt.Errorf("invidx: unsupported index snapshot format %d (want %d)", format, indexFormatVersion)
	}
	tokVer, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	if tokVer != TokenizerVersion {
		return nil, fmt.Errorf("invidx: index snapshot tokenizer version %d does not match %d", tokVer, TokenizerVersion)
	}
	if r.gen, err = d.uvarint(); err != nil {
		return nil, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	if r.tokens, err = d.count(2); err != nil {
		return nil, fmt.Errorf("invidx: token count: %w", err)
	}
	return r, nil
}

// next reads entry i into e.
func (r *snapshotReader) next(e *entry, i int) error {
	d := &r.d
	d.loose = false
	tok, err := d.view()
	if err != nil {
		return fmt.Errorf("invidx: token %d: %w", i, err)
	}
	nKeys, err := d.count(3)
	if err != nil {
		return fmt.Errorf("invidx: token %q locations: %w", tok, err)
	}
	if nKeys == 0 {
		return fmt.Errorf("invidx: token %q has no locations", tok)
	}
	e.tok, e.lists, e.ids = tok, e.lists[:0], e.ids[:0]
	for j := 0; j < nKeys; j++ {
		rel, err := d.view()
		if err != nil {
			return fmt.Errorf("invidx: token %q location %d: %w", tok, j, err)
		}
		attr, err := d.view()
		if err != nil {
			return fmt.Errorf("invidx: token %q location %d: %w", tok, j, err)
		}
		key := postingKey{rel, attr}
		if j > 0 && e.lists[j-1].key.compare(key) >= 0 {
			return fmt.Errorf("invidx: token %q location %s.%s out of order", tok, rel, attr)
		}
		nIDs, err := d.count(1)
		if err != nil {
			return fmt.Errorf("invidx: token %q %s.%s ids: %w", tok, rel, attr, err)
		}
		if nIDs == 0 {
			return fmt.Errorf("invidx: token %q %s.%s has no ids", tok, rel, attr)
		}
		from := len(e.ids)
		prev := uint64(0)
		for k := 0; k < nIDs; k++ {
			gap, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("invidx: token %q %s.%s id %d: %w", tok, rel, attr, k, err)
			}
			if gap == 0 || gap > uint64(storage.MaxTupleID)-prev {
				return fmt.Errorf("invidx: token %q %s.%s id %d: gap %d after %d", tok, rel, attr, k, gap, prev)
			}
			prev += gap
			e.ids = append(e.ids, uint32(prev))
		}
		e.lists = append(e.lists, locList{key: key, ids: e.ids[from:len(e.ids):len(e.ids)]})
	}
	e.loose = d.loose
	return nil
}

// end refuses bytes after the last entry.
func (r *snapshotReader) end() error {
	if !r.d.done() {
		return fmt.Errorf("invidx: %d trailing byte(s) after index snapshot body", r.d.remaining())
	}
	return nil
}

// indexDec is a bounds-checked reader over the snapshot body.
type indexDec struct {
	b   []byte
	off int
	// loose is set by a uvarint encoded longer than it needs to be.
	loose bool
}

func (d *indexDec) remaining() int { return len(d.b) - d.off }

func (d *indexDec) done() bool { return d.off >= len(d.b) }

func (d *indexDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at %d", d.off)
	}
	d.off += n
	d.loose = d.loose || n != uvarintSize(v)
	return v, nil
}

// view reads a length-prefixed string that aliases the body.
func (d *indexDec) view() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("string of %d bytes at %d exceeds remaining %d", n, d.off, d.remaining())
	}
	s := unsafe.String(unsafe.SliceData(d.b[d.off:]), int(n))
	d.off += int(n)
	return s, nil
}

// count reads an element count and validates it against the smallest
// possible per-element encoding, so a fuzzed count can never drive an
// allocation larger than the input itself.
func (d *indexDec) count(minBytesPerElem int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytesPerElem < 1 {
		minBytesPerElem = 1
	}
	if n > uint64(d.remaining()/minBytesPerElem) {
		return 0, fmt.Errorf("count %d at %d exceeds remaining input", n, d.off)
	}
	return int(n), nil
}
