package invidx

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"precis/internal/storage"
)

// Patch carries an index snapshot forward over changed tuples without
// decoding it into an Index: a compaction patches the base generation's
// persisted index this way. AddTuple and RemoveTuple record the postings a
// tuple adds or removes, as the Index methods of the same names would apply
// them; Apply walks the snapshot's bytes in their token order, copies an
// entry no edit names as it is, and re-encodes the others. Its bytes are
// those of decoding the snapshot, applying the same calls and encoding.
type Patch struct {
	db    *storage.Database
	edits []edit
	locs  []postingKey // the locations the edits name
	// Reused while applying: the locations, ids and bytes of the entry
	// being re-encoded.
	lists []locList
	ids   storage.IDList
	entry []byte
}

// edit adds or removes one posting: id at location locs[loc] for tok.
type edit struct {
	tok string
	id  uint32
	loc int32
	add bool
}

// NewPatch returns an empty patch for an index of db, whose schemas say
// which attributes a tuple's postings are at.
func NewPatch(db *storage.Database) *Patch { return &Patch{db: db} }

// AddTuple records that t, a tuple of the named relation, is indexed.
func (p *Patch) AddTuple(relation string, t storage.Tuple) { p.tuple(relation, t, true) }

// RemoveTuple records that t, as it was stored, is un-indexed.
func (p *Patch) RemoveTuple(relation string, t storage.Tuple) { p.tuple(relation, t, false) }

func (p *Patch) tuple(relation string, t storage.Tuple, add bool) {
	rel := p.db.Relation(relation)
	if rel == nil {
		return
	}
	for i, col := range rel.Schema().Columns {
		if col.Type != storage.TypeString || i >= len(t.Values) || t.Values[i].IsNull() {
			continue
		}
		loc := p.loc(postingKey{relation, col.Name})
		for _, tok := range Tokenize(t.Values[i].AsString()) {
			p.edits = append(p.edits, edit{tok: tok, id: uint32(t.ID), loc: loc, add: add})
		}
	}
}

// loc returns key's place in p.locs, adding it there if need be.
func (p *Patch) loc(key postingKey) int32 {
	for i, k := range p.locs {
		if k == key {
			return int32(i)
		}
	}
	p.locs = append(p.locs, key)
	return int32(len(p.locs) - 1)
}

// errUnsorted refuses a snapshot whose tokens are not in EncodeSnapshot's
// order, which no engine writes.
var errUnsorted = errors.New("invidx: index snapshot tokens out of order")

// errOvertaken refuses a patch whose output would overwrite snapshot bytes
// it has still to read.
var errOvertaken = errors.New("invidx: patch output overtook the snapshot it reads")

// Apply returns the snapshot base holds (size bytes) with the patch applied,
// stamped gen, and the generation base itself is stamped with. It refuses
// every snapshot DecodeSnapshot refuses, and one whose tokens are out of
// order; the caller rebuilds. base is read once, into the tail of the buffer
// the result is written to from the front: the room before it is what the
// edits can add, and the output never overtakes a byte still to be read.
func (p *Patch) Apply(base io.ReaderAt, size int, gen uint64) ([]byte, uint64, error) {
	edits := p.final()
	reserve := len(indexMagic) + 4*binary.MaxVarintLen64 // the header, written last
	room := reserve
	for _, e := range edits {
		if e.add {
			key := p.locs[e.loc]
			room += strSize(e.tok) + strSize(key.rel) + strSize(key.attr) + 3*binary.MaxVarintLen64
		}
	}
	buf := make([]byte, room+size)
	if n, err := base.ReadAt(buf[room:], 0); n < size {
		return nil, 0, fmt.Errorf("invidx: reading index snapshot: %w", err)
	}
	r, err := openSnapshot(buf[room:])
	if err != nil {
		return nil, 0, err
	}
	// The reader's offsets count from after the magic.
	in := room + len(indexMagic)
	out, tokens := buf[:reserve], 0
	// put appends an entry (none for a token left with no posting), which
	// must leave the bytes from limit on alone.
	put := func(b []byte, limit int) error {
		if len(out)+len(b) > in+limit {
			return errOvertaken
		}
		n := len(out)
		out = out[:n+len(b)]
		copy(out[n:], b) // b may be the input just ahead: copy moves it as it was
		if len(b) > 0 {
			tokens++
		}
		return nil
	}
	var e entry
	var prev []byte
	for i := 0; i < r.tokens; i++ {
		start := r.d.off
		if err := r.next(&e, i); err != nil {
			return nil, 0, err
		}
		if i > 0 && string(prev) >= e.tok {
			return nil, 0, fmt.Errorf("%w: %q after %q", errUnsorted, e.tok, prev)
		}
		prev = append(prev[:0], e.tok...)
		// The tokens only the edits hold, before this one.
		for len(edits) > 0 && edits[0].tok < e.tok {
			var group []edit
			group, edits = split(edits)
			if err := put(p.merge(group[0].tok, nil, group), start); err != nil {
				return nil, 0, err
			}
		}
		var group []edit
		if len(edits) > 0 && edits[0].tok == e.tok {
			group, edits = split(edits)
		}
		// An entry goes as it is when no edit names it and its bytes are what
		// encoding it writes.
		b := r.d.b[start:r.d.off]
		if group != nil || e.loose {
			b = p.merge(e.tok, e.lists, group)
		}
		if err := put(b, r.d.off); err != nil {
			return nil, 0, err
		}
	}
	if err := r.end(); err != nil {
		return nil, 0, err
	}
	for len(edits) > 0 {
		var group []edit
		group, edits = split(edits)
		if err := put(p.merge(group[0].tok, nil, group), r.d.off); err != nil {
			return nil, 0, err
		}
	}

	var header [len(indexMagic) + 4*binary.MaxVarintLen64]byte
	h := appendHeader(header[:0], gen, tokens)
	start := reserve - len(h)
	copy(buf[start:], h)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[start:], indexCRCTable))
	return out[start:len(out):len(out)], r.gen, nil
}

// final sorts the edits by token, location and id, and keeps the last of
// each posting's: the one that decides whether it is there.
func (p *Patch) final() []edit {
	slices.SortStableFunc(p.edits, func(a, b edit) int {
		if c := strings.Compare(a.tok, b.tok); c != 0 {
			return c
		}
		if c := p.locs[a.loc].compare(p.locs[b.loc]); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := p.edits[:0]
	for i, e := range p.edits {
		if next := i + 1; next < len(p.edits) && p.edits[next].tok == e.tok && p.edits[next].loc == e.loc && p.edits[next].id == e.id {
			continue
		}
		out = append(out, e)
	}
	p.edits = out
	return out
}

// split returns the edits of the first token and the rest.
func split(edits []edit) (group, rest []edit) {
	n := 1
	for n < len(edits) && edits[n].tok == edits[0].tok {
		n++
	}
	return edits[:n], edits[n:]
}

// merge returns tok's entry with its locations base (nil for a token the
// snapshot lacks) and edits applied, in bytes reused by the next call: none
// when the token ends with no posting. base may alias the snapshot; the entry
// is written apart from it.
func (p *Patch) merge(tok string, base []locList, edits []edit) []byte {
	p.lists, p.ids = p.lists[:0], p.ids[:0]
	for len(base) > 0 || len(edits) > 0 {
		c := -1
		switch {
		case len(base) == 0:
			c = 1
		case len(edits) > 0:
			c = base[0].key.compare(p.locs[edits[0].loc])
		}
		var key postingKey
		var ids storage.IDList
		if c <= 0 {
			key, ids, base = base[0].key, base[0].ids, base[1:]
		} else {
			key = p.locs[edits[0].loc]
		}
		n := 0
		if c >= 0 {
			for n < len(edits) && edits[n].loc == edits[0].loc {
				n++
			}
		}
		from := len(p.ids)
		for _, e := range edits[:n] {
			for len(ids) > 0 && ids[0] < e.id {
				p.ids, ids = append(p.ids, ids[0]), ids[1:]
			}
			if len(ids) > 0 && ids[0] == e.id {
				ids = ids[1:]
			}
			if e.add {
				p.ids = append(p.ids, e.id)
			}
		}
		p.ids = append(p.ids, ids...)
		edits = edits[n:]
		if len(p.ids) > from {
			p.lists = append(p.lists, locList{key: key, ids: p.ids[from:len(p.ids):len(p.ids)]})
		}
	}
	if len(p.lists) == 0 {
		return nil
	}
	p.entry = appendEntry(p.entry[:0], tok, p.lists)
	return p.entry
}
