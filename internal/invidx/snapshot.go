package invidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

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
// full database snapshot generation it matches). Deterministic: identical
// postings produce identical bytes.
func (ix *Index) EncodeSnapshot(gen uint64) []byte {
	tokens := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)

	out := []byte(indexMagic)
	out = binary.AppendUvarint(out, indexFormatVersion)
	out = binary.AppendUvarint(out, TokenizerVersion)
	out = binary.AppendUvarint(out, gen)
	out = binary.AppendUvarint(out, uint64(len(tokens)))
	for _, tok := range tokens {
		lists := ix.postings[tok]
		out = appendIndexStr(out, tok)
		out = binary.AppendUvarint(out, uint64(len(lists)))
		for _, l := range lists {
			out = appendIndexStr(out, l.key.rel)
			out = appendIndexStr(out, l.key.attr)
			out = binary.AppendUvarint(out, uint64(len(l.ids)))
			prev := uint64(0)
			for _, id := range l.ids {
				// Gap-encode ascending ids: small varints for dense postings.
				out = binary.AppendUvarint(out, uint64(id)-prev)
				prev = uint64(id)
			}
		}
	}
	sum := crc32.Checksum(out, indexCRCTable)
	return binary.LittleEndian.AppendUint32(out, sum)
}

func appendIndexStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeSnapshot parses index snapshot bytes into an Index bound to db,
// returning the generation stamp the file carries. Any defect — bad magic,
// checksum mismatch, version skew (format or tokenizer), truncation, or a
// count the input cannot back, a token without locations, locations out of
// order or repeated, an empty list, a zero gap or an id past MaxTupleID — is an
// error; callers respond by rebuilding, never by trusting partial postings. The decoder is bounds-checked
// throughout: it never panics and never allocates more than the input
// justifies, whatever the bytes claim.
func DecodeSnapshot(raw []byte, db *storage.Database) (*Index, uint64, error) {
	if len(raw) < len(indexMagic)+4 || string(raw[:len(indexMagic)]) != indexMagic {
		return nil, 0, fmt.Errorf("invidx: not an index snapshot (bad magic)")
	}
	body := raw[:len(raw)-4]
	stored := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.Checksum(body, indexCRCTable); got != stored {
		return nil, 0, fmt.Errorf("invidx: index snapshot checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	d := &indexDec{b: body[len(indexMagic):]}
	format, err := d.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	if format != indexFormatVersion {
		return nil, 0, fmt.Errorf("invidx: unsupported index snapshot format %d (want %d)", format, indexFormatVersion)
	}
	tokVer, err := d.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	if tokVer != TokenizerVersion {
		return nil, 0, fmt.Errorf("invidx: index snapshot tokenizer version %d does not match %d", tokVer, TokenizerVersion)
	}
	gen, err := d.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("invidx: index snapshot header: %w", err)
	}
	nTokens, err := d.count(2)
	if err != nil {
		return nil, 0, fmt.Errorf("invidx: token count: %w", err)
	}
	ix := &Index{db: db, postings: make(map[string][]locList, nTokens)}
	for i := 0; i < nTokens; i++ {
		tok, err := d.str()
		if err != nil {
			return nil, 0, fmt.Errorf("invidx: token %d: %w", i, err)
		}
		nKeys, err := d.count(3)
		if err != nil {
			return nil, 0, fmt.Errorf("invidx: token %q locations: %w", tok, err)
		}
		if nKeys == 0 {
			return nil, 0, fmt.Errorf("invidx: token %q has no locations", tok)
		}
		lists := make([]locList, 0, nKeys)
		for j := 0; j < nKeys; j++ {
			rel, err := d.str()
			if err != nil {
				return nil, 0, fmt.Errorf("invidx: token %q location %d: %w", tok, j, err)
			}
			attr, err := d.str()
			if err != nil {
				return nil, 0, fmt.Errorf("invidx: token %q location %d: %w", tok, j, err)
			}
			key := postingKey{rel, attr}
			if j > 0 && lists[j-1].key.compare(key) >= 0 {
				return nil, 0, fmt.Errorf("invidx: token %q location %s.%s out of order", tok, rel, attr)
			}
			nIDs, err := d.count(1)
			if err != nil {
				return nil, 0, fmt.Errorf("invidx: token %q %s.%s ids: %w", tok, rel, attr, err)
			}
			if nIDs == 0 {
				return nil, 0, fmt.Errorf("invidx: token %q %s.%s has no ids", tok, rel, attr)
			}
			ids := make(storage.IDList, nIDs)
			prev := uint64(0)
			for k := range ids {
				gap, err := d.uvarint()
				if err != nil {
					return nil, 0, fmt.Errorf("invidx: token %q %s.%s id %d: %w", tok, rel, attr, k, err)
				}
				if gap == 0 || gap > uint64(storage.MaxTupleID)-prev {
					return nil, 0, fmt.Errorf("invidx: token %q %s.%s id %d: gap %d after %d", tok, rel, attr, k, gap, prev)
				}
				prev += gap
				ids[k] = uint32(prev)
			}
			lists = append(lists, locList{key: key, ids: ids})
			ix.ids += nIDs
		}
		ix.lists += nKeys
		if _, dup := ix.postings[tok]; dup {
			return nil, 0, fmt.Errorf("invidx: duplicate token %q in index snapshot", tok)
		}
		ix.postings[tok] = lists
	}
	if !d.done() {
		return nil, 0, fmt.Errorf("invidx: %d trailing byte(s) after index snapshot body", d.remaining())
	}
	return ix, gen, nil
}

// indexDec is a bounds-checked reader over the snapshot body.
type indexDec struct {
	b   []byte
	off int
}

func (d *indexDec) remaining() int { return len(d.b) - d.off }

func (d *indexDec) done() bool { return d.off >= len(d.b) }

func (d *indexDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *indexDec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("string of %d bytes at %d exceeds remaining %d", n, d.off, d.remaining())
	}
	s := string(d.b[d.off : d.off+int(n)])
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
