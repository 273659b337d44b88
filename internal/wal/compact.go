package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"precis/internal/storage"
)

// Compaction is a merge of bytes. The chain's deltas — and, for a follower's
// bootstrap, the log records after them — are folded into the net change of
// every id they touched (a fold); the base snapshot is then read once, into
// the tail of the one buffer the output is written to, sized before the read
// for the base, the fold's rows and a header. Each relation section is walked
// tuple by tuple and the new snapshot written from the front of that buffer:
// a tuple the fold does not name is copied as it is, one it names is dropped
// or rewritten from its final row, and the rows the fold places anew follow
// the base's. The output never overtakes the input it has still to read — the
// buffer's room before the base is what the fold adds, and a check refuses
// the compaction, the chain kept, should it ever come to that. No Database is
// built and nothing is indexed: a tuple is decoded only to be checked, and its
// bytes are copied. Yet the result is byte for byte what decoding the base,
// applying every delta and encoding the state gives.

// A fold is what a run of deltas and log records did to a base it has not
// read: per relation, the final row of every id the run touched — or none,
// the id deleted — and where that row goes. The run is folded one step at a
// time, as ApplyDelta and replay would apply it: an id whose first touch is an
// upsert is updated in place if the base holds it, and placed after the base's
// tuples otherwise; an id deleted on the way loses any base tuple, and an
// upsert after that places it anew; rows placed anew keep the order they were
// placed in.
type fold struct {
	rels  map[string]*relFold
	order []string // relation names, in first-touch order
	// next is the highest id watermark a delta declared, or the id after the
	// highest one the run upserted.
	next storage.TupleID
	// extras holds the synonyms and macros of the last delta folded (its DB
	// unused) and fks its foreign keys; nil while no delta is folded, which
	// keeps the base's. tail holds the synonym and macro records folded after
	// it, applied on top.
	extras *SnapshotData
	fks    []storage.ForeignKey
	tail   []Record
}

// relFold is one relation's part of a fold.
type relFold struct {
	at      map[storage.TupleID]int // into changes
	changes []change
	placed  int // rows placed after the base's so far
}

// change is the net change of one id.
type change struct {
	id  storage.TupleID
	row storage.Row // the final row; not Valid when the id ended deleted
	seq int         // rank among the rows placed after the base's
	// moved: the id was deleted on the way, so a base tuple of it is dropped,
	// never rewritten in place.
	moved bool
	// Set by the merge: whether the base held the id in this relation (old
	// are then that tuple's values, for an observer), and whether the final
	// row was written in its place.
	base, inPlace bool
	old           []storage.Value
}

func newFold() *fold { return &fold{rels: make(map[string]*relFold)} }

func (f *fold) rel(name string) *relFold {
	rf := f.rels[name]
	if rf == nil {
		rf = &relFold{at: make(map[storage.TupleID]int)}
		f.rels[name] = rf
		f.order = append(f.order, name)
	}
	return rf
}

// raise lifts the watermark as storage's SetNextTupleID would.
func (f *fold) raise(next storage.TupleID) { f.next = max(f.next, min(next, storage.MaxTupleID+1)) }

// put records that id's row is now row.
func (rf *relFold) put(id storage.TupleID, row storage.Row) {
	i, ok := rf.at[id]
	if !ok {
		rf.at[id] = len(rf.changes)
		rf.changes = append(rf.changes, change{id: id, row: row, seq: rf.placed})
		rf.placed++
		return
	}
	c := &rf.changes[i]
	if !c.row.Valid() { // deleted before: placed anew, after everything so far
		c.seq = rf.placed
		rf.placed++
	}
	c.row = row
}

// drop records that id is deleted.
func (rf *relFold) drop(id storage.TupleID) {
	i, ok := rf.at[id]
	if !ok {
		rf.at[id] = len(rf.changes)
		rf.changes = append(rf.changes, change{id: id, moved: true})
		return
	}
	rf.changes[i].row, rf.changes[i].moved = storage.Row{}, true
}

// delta folds d in: its tombstones, then its upserts, relation by relation,
// and its extras in place of any before.
func (f *fold) delta(d *DeltaData) {
	for _, r := range d.Relations {
		rf := f.rel(r.Name)
		for _, id := range r.Deletes {
			rf.drop(id)
		}
		for _, u := range r.Upserts {
			rf.put(u.ID, u.Row)
			f.raise(u.ID + 1)
		}
	}
	f.raise(d.NextTupleID)
	f.extras = &SnapshotData{Synonyms: slices.Clone(d.Synonyms), Macros: slices.Clone(d.Macros)}
	f.fks = slices.Clone(d.FKs)
	f.tail = nil
}

// record folds in one log record. The records are the engine's own history
// on top of the chain, so each applies; only what a tuple ends as is kept.
func (f *fold) record(r Record) error {
	switch r.Op {
	case OpInsert, OpUpdate:
		f.rel(r.Rel).put(r.ID, storage.MakeRow(r.Values...))
		f.raise(r.ID + 1)
	case OpDelete:
		f.rel(r.Rel).drop(r.ID)
	case OpSynonym, OpMacro:
		f.tail = append(f.tail, r)
	default:
		return fmt.Errorf("unknown op %d", uint8(r.Op))
	}
	return nil
}

// merge returns the snapshot of the state base (size bytes, the full snapshot
// of generation gen, file its name) is in once f is applied. It refuses a base
// exactly where DecodeSnapshot refuses it, classified alike, with one
// exception: two relations holding one id, which storage's own invariant
// forbids, are refused here and not there. It refuses a fold that leaves a
// row its relation cannot hold, a primary key or an id held twice, or that
// names a relation or a foreign-key endpoint the base lacks.
//
// Keys are checked in O(changes) memory: the tuples the fold does not touch
// held unique keys when the base was written — DecodeSnapshot, which checks,
// would have refused it otherwise — so it is enough that the final rows'
// keys are unique among themselves and that no untouched tuple holds one.
// Ids are checked in a bitmap over the base's ids.
//
// obs, when set, is handed the base's schemas (a database without tuples)
// and then, once the merge has succeeded, every tuple the fold changed, with
// its base values: what it takes to carry a persisted index of the base
// forward.
func merge(file string, base io.ReaderAt, size int, f *fold, gen uint64, obs RecoveryObserver) ([]byte, error) {
	m := &merger{f: f, obs: obs}
	// The header is written last, ending where the first relation section
	// starts: its watermark is known only after the walk. It is the base's
	// header with at most a longer watermark.
	m.reserve = len(snapMagic) + FrameOverhead + binary.MaxVarintLen64
	if size >= len(snapMagic)+FrameOverhead {
		var n [4]byte // the header frame's payload length
		if _, err := base.ReadAt(n[:], int64(len(snapMagic))); err != nil {
			return nil, err
		}
		m.reserve += int(min(binary.LittleEndian.Uint32(n[:]), uint32(size)))
	}
	// The output is no longer than the base, but for the fold's rows, a wider
	// tuple count per relation, new extras and a trailer: that is the room
	// the buffer keeps before the base.
	room := enc{sizing: true, n: m.reserve + len(f.rels)*binary.MaxVarintLen64}
	for _, rf := range f.rels {
		for _, c := range rf.changes {
			if c.row.Valid() {
				room.uvarint(uint64(c.id))
				room.row(c.row)
			}
		}
	}
	if f.extras != nil {
		room.fks(f.fks)
		room.extras(f.extras.Synonyms, f.extras.Macros)
	}
	for _, r := range f.tail {
		room.n += len(r.Alias) + len(r.Canonical) + len(r.Def) + 4*binary.MaxVarintLen64
	}
	room.n += 3*FrameOverhead + len(snapTrailer) + 2*binary.MaxVarintLen64
	buf := make([]byte, room.n+size)
	if n, err := base.ReadAt(buf[room.n:], 0); n < size {
		return nil, err
	}
	return m.run(file, buf, room.n, gen)
}

// errOvertaken refuses a merge whose output would overwrite base bytes it
// has still to read.
var errOvertaken = errors.New("wal: compaction: the output overtook the base it is merged from")

// run merges m.f into the base that fills buf from byte at on, writing the
// snapshot from the front of buf, after m.reserve bytes kept for the header.
func (m *merger) run(file string, buf []byte, at int, gen uint64) ([]byte, error) {
	m.raw, m.end = buf[at:], cap(buf)
	m.out.b = buf[:m.reserve]
	data, err := readSnapshot(file, m.raw, m.relation)
	if m.overtaken {
		return nil, errOvertaken
	}
	if err != nil {
		return nil, err
	}
	if m.fail != nil {
		return nil, m.fail
	}
	if err := m.checkPlaced(data.DB); err != nil {
		return nil, err
	}

	// Extras: the last delta's replace the base's, the records after it
	// apply on top.
	f := m.f
	if f.extras != nil {
		data.Synonyms, data.synIdx = f.extras.Synonyms, nil
		data.Macros, data.macroSet = f.extras.Macros, nil
		data.DB.SetForeignKeys(nil)
		for _, fk := range f.fks {
			if err := data.DB.AddForeignKey(fk); err != nil {
				return nil, fmt.Errorf("wal: compaction: %w", err)
			}
		}
	}
	for _, r := range f.tail {
		if err := r.apply(data); err != nil {
			return nil, fmt.Errorf("wal: compaction: %s record: %w", r.Op, err)
		}
	}
	// The base is read: the rest of the buffer is the output's.
	if err := m.out.tail(data.DB.ForeignKeys(), data.Synonyms, data.Macros, snapTrailer, m.total); err != nil {
		return nil, fmt.Errorf("wal: compaction: %w", err)
	}

	writeHeader := func(h *enc) error {
		h.put(snapMagic)
		at := h.open()
		h.header(data.DB.Name(), max(data.DB.NextTupleID(), m.maxID+1, f.next), data.DB.NumRelations())
		return h.close(at)
	}
	h := enc{sizing: true}
	_ = writeHeader(&h)
	start := m.reserve - h.n
	h = enc{b: m.out.b[start:start:m.reserve]}
	if err := writeHeader(&h); err != nil {
		return nil, fmt.Errorf("wal: compaction: snapshot header: %w", err)
	}

	if m.obs != nil {
		m.obs.RecoveryBase(gen, data.DB)
		for _, name := range f.order {
			for _, c := range f.rels[name].changes {
				var was, now *storage.Tuple
				if c.base {
					was = &storage.Tuple{ID: c.id, Values: c.old}
				}
				if c.row.Valid() {
					now = &storage.Tuple{ID: c.id, Values: c.row.Values()}
				}
				if was != nil || now != nil {
					m.obs.RecoveryApply(name, was, now)
				}
			}
		}
	}
	return m.out.b[start:len(m.out.b):len(m.out.b)], nil
}

// merger is one merge in progress.
type merger struct {
	f   *fold
	obs RecoveryObserver
	// raw is the base, at the tail of the buffer out writes from the front
	// of; end is the buffer's capacity.
	raw     []byte
	end     int
	out     enc
	reserve int // bytes at the start of out kept for the magic and header
	seen    idSet
	maxID   storage.TupleID
	total   int // tuples written
	vals    []storage.Value
	canon   enc // a tuple re-encoded
	// fail is the first error that is not the base's: a fold the base cannot
	// take, or an output section over the frame limit. The walk goes on to
	// the end of the base, so that a defect of the base wins, classified as
	// readSnapshot classifies it, as it would where the base is decoded before
	// the deltas are applied.
	fail error
	// overtaken: the output reached base bytes still to be read, and the
	// walk stopped.
	overtaken bool
}

// behind reports whether the output is still behind base byte i of the
// section d reads, where the bytes still to be read start. Every slice of
// the base runs to the buffer's end, so its capacity says where it starts.
// A false answer stops the walk.
func (m *merger) behind(d *dec, i int) bool {
	m.overtaken = len(m.out.b) > m.end-cap(d.b[i:])
	return !m.overtaken
}

// copyRun appends b, base bytes the output is behind, to the output: copy,
// which moves overlapping bytes as they were.
func (m *merger) copyRun(b []byte) {
	n := len(m.out.b)
	m.out.b = m.out.b[:n+len(b)]
	copy(m.out.b[n:], b)
}

func (m *merger) refuse(err error) {
	if m.fail == nil {
		m.fail = err
	}
}

// relation merges one relation section: readSnapshot's callback.
func (m *merger) relation(db *storage.Database, rel *storage.Relation, n int, d *dec) error {
	if m.seen.bits == nil && m.seen.more == nil {
		m.seen = newIDSet(db.NextTupleID(), len(m.raw))
	}
	sc := rel.Schema()
	key := sc.ColumnIndex(sc.Key) // -1 without a key
	rf := m.f.rels[sc.Name]
	keys, err := finalKeys(rel, key, rf)
	if err != nil {
		m.refuse(fmt.Errorf("wal: compaction: %w", err))
	}

	o := &m.out
	at := o.open()
	o.schema(sc)
	countAt := len(o.b)
	o.uvarint(uint64(n)) // a placeholder the width of the base's count
	width := len(o.b) - countAt
	if !m.behind(d, d.off) {
		return errOvertaken
	}
	written := 0
	run := d.off // the run of tuples copied as they are starts here
	d.borrow = true
	for i := 0; i < n; i++ {
		start := d.off
		id, vals, err := m.tuple(rel, d)
		if err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
		if !m.seen.add(id) {
			return fmt.Errorf("tuple %d: id %d is held twice", i, id)
		}
		m.maxID = max(m.maxID, id)
		var c *change
		if rf != nil {
			if j, ok := rf.at[id]; ok {
				c = &rf.changes[j]
			}
		}
		if c == nil {
			if key >= 0 {
				if other, dup := keys[vals[key]]; dup {
					m.refuse(fmt.Errorf("wal: compaction: %s primary key %s=%s: tuple %d holds it, and the chain gives it to %d",
						sc.Name, sc.Key, vals[key].String(), id, other))
				}
			}
			written++
			// A tuple goes as it is when its bytes are what encoding it
			// writes, as they are unless crafted: that is what the old
			// decode-and-encode wrote.
			m.canon.b = m.canon.b[:0]
			m.canon.uvarint(uint64(id))
			m.canon.uvarint(uint64(len(vals)))
			for _, v := range vals {
				m.canon.value(v)
			}
			if bytes.Equal(m.canon.b, d.b[start:d.off]) {
				continue // still in the run
			}
		} else if m.obs != nil {
			// The values' text borrows the base, which the output is about
			// to overwrite.
			c.old = ownValues(vals)
		}
		m.copyRun(d.b[run:start])
		run = d.off
		switch {
		case c == nil:
			o.b = append(o.b, m.canon.b...)
		case !c.moved && c.row.Valid(): // updated in place
			c.base, c.inPlace = true, true
			o.uvarint(uint64(id))
			o.row(c.row)
			written++
		default: // deleted, or deleted and placed anew
			c.base = true
		}
		if !m.behind(d, run) {
			return errOvertaken
		}
	}
	m.copyRun(d.b[run:d.off])

	// Then the rows placed after the base's, in the order they were placed.
	if rf != nil {
		var placed []*change
		for j := range rf.changes {
			if c := &rf.changes[j]; c.row.Valid() && !c.inPlace {
				placed = append(placed, c)
			}
		}
		slices.SortFunc(placed, func(a, b *change) int { return a.seq - b.seq })
		for _, c := range placed {
			o.uvarint(uint64(c.id))
			o.row(c.row)
		}
		written += len(placed)
	}

	// The count, in the width it takes: the tuples move when that is not the
	// width of the base's.
	var buf [binary.MaxVarintLen64]byte
	count := binary.AppendUvarint(buf[:0], uint64(written))
	if w := len(count); w != width {
		tuples := len(o.b) - countAt - width
		if w > width {
			o.b = append(o.b, count[width:]...)
		}
		copy(o.b[countAt+w:], o.b[countAt+width:countAt+width+tuples])
		o.b = o.b[:countAt+w+tuples]
	}
	copy(o.b[countAt:], count)
	if !m.behind(d, d.off) {
		return errOvertaken
	}
	m.total += written
	if err := o.close(at); err != nil {
		m.refuse(fmt.Errorf("wal: compaction: relation %s: %w", sc.Name, err))
	}
	return nil
}

// ownValues copies vals with text of their own.
func ownValues(vals []storage.Value) []storage.Value {
	out := slices.Clone(vals)
	for i, v := range out {
		if v.Kind() == storage.KindString {
			out[i] = storage.String(strings.Clone(v.AsString()))
		}
	}
	return out
}

// tuple reads the base tuple at d, its text borrowed, and checks it as
// DecodeSnapshot's insert does, in the order that makes the same error win:
// the encoding, then the id — positive, and at most storage.MaxTupleID, past
// which the error wraps storage.ErrOutOfIDs — then the values, which it
// returns as the relation stores them (Fit).
func (m *merger) tuple(rel *storage.Relation, d *dec) (storage.TupleID, []storage.Value, error) {
	raw, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if m.vals, err = d.values(m.vals[:0]); err != nil {
		return 0, nil, err
	}
	switch id := storage.TupleID(raw); {
	case id <= 0:
		return 0, nil, fmt.Errorf("tuple id must be positive, got %d", id)
	case id > storage.MaxTupleID:
		return 0, nil, fmt.Errorf("tuple id %d is above the largest, %d: %w", id, storage.MaxTupleID, storage.ErrOutOfIDs)
	default:
		vals, err := rel.Fit(id, m.vals)
		return id, vals, err
	}
}

// finalKeys checks the final rows of rf as an insert into rel would
// (Fit), and returns their primary keys, each with its tuple: nil when
// the relation has no key or rf leaves no row.
func finalKeys(rel *storage.Relation, key int, rf *relFold) (map[storage.Value]storage.TupleID, error) {
	if rf == nil {
		return nil, nil
	}
	var keys map[storage.Value]storage.TupleID
	for _, c := range rf.changes {
		if !c.row.Valid() {
			continue
		}
		if c.id <= 0 || c.id > storage.MaxTupleID {
			return nil, fmt.Errorf("%s tuple id %d is outside [1, %d]: %w", rel.Name(), c.id, storage.MaxTupleID, storage.ErrOutOfIDs)
		}
		vals, err := rel.Fit(c.id, c.row.Values())
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", c.id, err)
		}
		if key < 0 {
			continue
		}
		if keys == nil {
			keys = make(map[storage.Value]storage.TupleID, len(rf.changes))
		}
		if other, dup := keys[vals[key]]; dup {
			return nil, fmt.Errorf("%s primary key %s=%s ends held by tuples %d and %d", rel.Name(), rel.Schema().Key, vals[key].String(), other, c.id)
		}
		keys[vals[key]] = c.id
	}
	return keys, nil
}

// checkPlaced holds the fold to the base it was merged into: every relation
// it names exists, and every id it placed anew is held by no other tuple of
// the output.
func (m *merger) checkPlaced(db *storage.Database) error {
	placed := make(map[storage.TupleID]string)
	for _, name := range m.f.order {
		if db.Relation(name) == nil {
			return fmt.Errorf("wal: compaction: delta references unknown relation %s", name)
		}
		for _, c := range m.f.rels[name].changes {
			if !c.row.Valid() {
				continue
			}
			if !c.inPlace && !c.base && m.seen.has(c.id) {
				return fmt.Errorf("wal: compaction: %s tuple %d: the id is held by another relation's tuple", name, c.id)
			}
			if other, dup := placed[c.id]; dup {
				return fmt.Errorf("wal: compaction: tuple id %d ends in both %s and %s", c.id, other, name)
			}
			placed[c.id] = name
		}
	}
	return nil
}

// idSet is a set of tuple ids: a bitmap below the watermark it was made for,
// when that takes no more than budget bytes, and a map for any other id.
type idSet struct {
	bits []uint64
	more map[storage.TupleID]bool
}

func newIDSet(below storage.TupleID, budget int) idSet {
	var s idSet
	if words := uint64(below)/64 + 1; words*8 <= uint64(budget) {
		s.bits = make([]uint64, words)
	} else {
		s.more = make(map[storage.TupleID]bool)
	}
	return s
}

// add adds id, reporting false when it was there already.
func (s *idSet) add(id storage.TupleID) bool {
	if w := uint64(id) / 64; w < uint64(len(s.bits)) {
		bit := uint64(1) << (uint64(id) % 64)
		had := s.bits[w]&bit != 0
		s.bits[w] |= bit
		return !had
	}
	if s.more[id] {
		return false
	}
	if s.more == nil {
		s.more = make(map[storage.TupleID]bool)
	}
	s.more[id] = true
	return true
}

func (s *idSet) has(id storage.TupleID) bool {
	if w := uint64(id) / 64; w < uint64(len(s.bits)) {
		return s.bits[w]&(uint64(1)<<(uint64(id)%64)) != 0
	}
	return s.more[id]
}
