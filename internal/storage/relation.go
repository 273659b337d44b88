package storage

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"precis/internal/faultinject"
)

// TupleID is the engine-assigned identity of a stored tuple, unique within a
// database. It plays the role of Oracle's rowid in the paper's architecture:
// the inverted index records tuple ids, and the result-database generator
// fetches tuples by id.
type TupleID int64

// Tuple is one stored row: its id plus one value per schema column.
type Tuple struct {
	ID     TupleID
	Values []Value
}

// slot is the physical storage of a tuple: 16 bytes, its id and its record
// (row.go). Nobody writes a record once it is stored — update stores a new
// one — so a Row handed out by Row, AppendRows or ScanRows stays valid
// whatever happens to the slot afterwards (CaptureDirty, cached answers and
// the engine's rollback paths depend on it), and one record may back a tuple
// in several databases: a shard and its source, a base relation and D′.
// Deleting negates the id and drops the record, leaving a tombstone so that
// positions remain stable for live scans.
type slot struct {
	id  TupleID // negated once the tuple is deleted
	rec *uint64
}

// Slots live in chunks of slotChunk positions, position p in chunk
// p>>slotChunkBits: the last chunk grows by doubling up to the cap, so a
// small relation costs one small allocation and a large one never carries
// more than a chunk of slack.
const (
	slotChunkBits = 10
	slotChunk     = 1 << slotChunkBits
)

// chunk is one run of consecutive slot positions. A full chunk whose tuples
// have all been deleted gives its slots back (slots == nil): nothing moves,
// so it is safe inside a Scan callback, and first-in-first-out churn keeps
// no tombstones. Order-preserving compaction of partly dead chunks is not
// attempted.
type chunk struct {
	slots []slot
	dead  int
}

// Relation is a populated relation: a schema, its tuples in insertion order,
// and equality indexes on selected columns.
type Relation struct {
	schema *Schema
	ncols  int
	lay    layout // how the records are read; the rows handed out point here
	chunks []chunk
	next   int // slot positions handed out: the next insert takes this one
	held   int // slots in memory, live or tombstone (freed chunks excluded)
	live   int
	bytes  int // of the records of live tuples
	// ids is an open-addressed table from tuple id to slot position + 1
	// (0 = empty), hashed by idHash and probed linearly. The key is not
	// stored: an entry matches id when the slot it names carries that id,
	// and an entry whose slot has died, or whose chunk has been freed,
	// matches nothing, so delete never touches the table. It is nil until
	// the first insert and rebuilt from its live entries at 3/4 load.
	ids     []int32
	idsUsed int // non-empty entries, dead ones included
	indexes map[string]*HashIndex
}

// newRelation builds an empty relation for the schema. If the schema has a
// primary key, an index on it is created eagerly so uniqueness checks need no
// scan.
func newRelation(s *Schema) *Relation {
	r := &Relation{
		schema:  s,
		ncols:   len(s.Columns),
		lay:     plainLayout(len(s.Columns), s.Columns),
		indexes: make(map[string]*HashIndex),
	}
	if s.Key != "" {
		r.indexes[s.Key] = &HashIndex{colIdx: s.ColumnIndex(s.Key)}
	}
	return r
}

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.live }

// slotAt returns the slot at position pos, or nil when its chunk was freed.
func (r *Relation) slotAt(pos int) *slot {
	c := &r.chunks[pos>>slotChunkBits]
	if c.slots == nil {
		return nil
	}
	return &c.slots[pos&(slotChunk-1)]
}

// row returns the live slot's row.
func (r *Relation) row(s *slot) Row { return Row{s.rec, &r.lay} }

// idHash spreads ids over a table of 1<<bits entries (Fibonacci hashing:
// consecutive ids, which is what a database allocates, land far apart).
func idHash(id TupleID, bits int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> (64 - bits))
}

// find returns the live slot holding id and its position.
func (r *Relation) find(id TupleID) (*slot, int) {
	if r.ids == nil || id <= 0 {
		return nil, 0
	}
	mask := len(r.ids) - 1
	for i := idHash(id, bits.TrailingZeros(uint(len(r.ids)))); ; i = (i + 1) & mask {
		e := r.ids[i]
		if e == 0 {
			return nil, 0
		}
		if s := r.slotAt(int(e - 1)); s != nil && s.id == id {
			return s, int(e - 1)
		}
	}
}

// bind records that id, which no live tuple carries, now lives at pos.
func (r *Relation) bind(id TupleID, pos int) {
	if r.idsUsed*4 >= len(r.ids)*3 {
		r.rehash(r.live)
	}
	r.claim(id, pos)
}

// claim is find and bind in one walk of the id table, which must have room
// (bind, Reserve): a live tuple carrying id is reported with its position
// and nothing changes; otherwise id is recorded as living at pos. A
// tombstone of the same id (the engine's delete rollback re-inserts a
// deleted id) has its entry overwritten, so an id never owns two entries it
// could be found under.
func (r *Relation) claim(id TupleID, pos int) (at int, held bool) {
	mask := len(r.ids) - 1
	i := idHash(id, bits.TrailingZeros(uint(len(r.ids))))
	for ; r.ids[i] != 0; i = (i + 1) & mask {
		e := int(r.ids[i] - 1)
		if s := r.slotAt(e); s == nil {
			continue
		} else if s.id == id {
			return e, true
		} else if s.id == -id {
			r.ids[i] = int32(pos + 1)
			return pos, false
		}
	}
	r.ids[i] = int32(pos + 1)
	r.idsUsed++
	return pos, false
}

// rehash rebuilds the id table from its entries that still name a live slot,
// sized so n tuples fill at most 3/8 of it. Walking the old table rather
// than the slots keeps the cost proportional to the inserts since the last
// rebuild, however many tombstones the relation carries.
func (r *Relation) rehash(n int) {
	size := 8
	for n*8 > size*3 {
		size *= 2
	}
	old := r.ids
	r.ids, r.idsUsed = make([]int32, size), 0
	shift, mask := bits.TrailingZeros(uint(size)), size-1
	for _, e := range old {
		if e == 0 {
			continue
		}
		if int(e-1) >= r.next { // insertBatch took its slots back
			continue
		}
		s := r.slotAt(int(e - 1))
		if s == nil || s.id < 0 {
			continue
		}
		i := idHash(s.id, shift)
		for r.ids[i] != 0 {
			i = (i + 1) & mask
		}
		r.ids[i] = e
		r.idsUsed++
	}
}

// lastChunk returns the chunk the next insert lands in, adding it when the
// previous one is full.
func (r *Relation) lastChunk() *chunk {
	if r.next>>slotChunkBits == len(r.chunks) {
		r.chunks = append(r.chunks, chunk{})
	}
	return &r.chunks[len(r.chunks)-1]
}

// grow gives the chunk room for n slots, at most a whole chunk.
func (c *chunk) grow(n int) {
	grown := make([]slot, len(c.slots), min(n, slotChunk))
	copy(grown, c.slots)
	c.slots = grown
}

// Reserve makes room for n more tuples — slots up to the end of the current
// chunk, and id-table entries — so a caller that knows how many it is about
// to insert pays for one allocation of each instead of growth by doubling.
func (r *Relation) Reserve(n int) {
	if n <= 0 {
		return
	}
	if (r.idsUsed+n)*4 >= len(r.ids)*3 {
		r.rehash(r.live + n)
	}
	if c := r.lastChunk(); len(c.slots)+n > cap(c.slots) && cap(c.slots) < slotChunk {
		c.grow(len(c.slots) + n)
	}
}

// appendSlot stores a new live slot at the next position and binds its id.
func (r *Relation) appendSlot(id TupleID, rec *uint64) error {
	if r.next == math.MaxInt32 {
		return fmt.Errorf("storage: %s is out of slot positions: %w", r.schema.Name, ErrOutOfIDs)
	}
	c := r.lastChunk()
	if len(c.slots) == cap(c.slots) {
		c.grow(max(2*cap(c.slots), 8))
	}
	c.slots = append(c.slots, slot{id: id, rec: rec})
	r.bind(id, r.next)
	r.next++
	r.held++
	r.live++
	r.bytes += r.lay.recordSize(rec)
	return nil
}

// validate checks arity, column types and the primary key of a candidate
// row. old is the row being replaced by an update (the zero Row for an
// insert): a key value equal to its own is not a duplicate.
func (r *Relation) validate(vals []Value, old Row) error {
	if err := r.CheckRow(vals); err != nil {
		return err
	}
	if key := r.schema.Key; key != "" {
		ki := r.schema.ColumnIndex(key)
		if kv := vals[ki]; (!old.Valid() || !kv.Equal(old.Value(ki))) && r.indexes[key].has(kv) {
			return r.errDuplicateKey(kv)
		}
	}
	return nil
}

// CheckRow is the part of an insert's validation that needs no index: arity,
// column types, a primary key that is not NULL and text that fits a record.
func (r *Relation) CheckRow(vals []Value) error {
	if len(vals) != r.ncols {
		return fmt.Errorf("storage: %s expects %d values, got %d",
			r.schema.Name, r.ncols, len(vals))
	}
	text := r.lay.words + 8*r.lay.width
	for i, v := range vals {
		col := r.schema.Columns[i]
		if !col.Type.Accepts(v.Kind()) {
			return fmt.Errorf("storage: %s.%s is %s, cannot store %s value %q",
				r.schema.Name, col.Name, col.Type, v.Kind(), v.String())
		}
		if text += len(v.s); text > maxRecord {
			return fmt.Errorf("storage: %s row holds more than %d bytes of text", r.schema.Name, maxRecord)
		}
	}
	if key := r.schema.Key; key != "" && vals[r.schema.ColumnIndex(key)].IsNull() {
		return fmt.Errorf("storage: %s primary key %s cannot be NULL", r.schema.Name, key)
	}
	return nil
}

func (r *Relation) errDuplicateKey(kv Value) error {
	return fmt.Errorf("storage: %s primary key %s=%s already exists",
		r.schema.Name, r.schema.Key, kv.String())
}

// checkID refuses an id no tuple can carry, and one a live tuple does.
func (r *Relation) checkID(id TupleID) error {
	if id <= 0 {
		return fmt.Errorf("storage: tuple id must be positive, got %d", id)
	}
	if id > MaxTupleID {
		return fmt.Errorf("storage: tuple id %d is above the largest, %d: %w", id, MaxTupleID, ErrOutOfIDs)
	}
	if r.Has(id) {
		return fmt.Errorf("storage: relation %s already holds tuple %d", r.schema.Name, id)
	}
	return nil
}

// insert stores a tuple with the given id, its values copied into a record.
func (r *Relation) insert(id TupleID, vals []Value) (TupleID, error) {
	if err := r.validate(vals, Row{}); err != nil {
		return 0, err
	}
	rec := r.lay.encode(vals)
	if err := r.appendSlot(id, rec); err != nil {
		return 0, err
	}
	r.indexRow(id, Row{rec, &r.lay})
	return id, nil
}

// insertBatch stores the tuples (ids[i], rows[i]) in order, all or none: one
// reservation, one walk of the id table, one validation pass (admit) and one
// update per index, with the checks a loop of insert would make. An id the
// batch repeats is stored once, under its first row, and its later rows are
// not looked at; an id the relation held before is an error. It returns how
// many tuples it stored. After an error the relation and its indexes hold what
// they held before, and the error is the one the first failing tuple would
// have met in that loop.
func (r *Relation) insertBatch(ids []TupleID, rows []Row) (int, error) {
	if int64(r.next)+int64(len(ids)) > math.MaxInt32 {
		return 0, fmt.Errorf("storage: %s is out of slot positions: %w", r.schema.Name, ErrOutOfIDs)
	}
	if r.next == 0 && len(rows) > 0 && rows[0].Valid() {
		r.adopt(rows[0].lay)
	}
	base := r.next
	r.Reserve(len(ids))
	kept, keptRows, ok := r.place(ids, rows)
	bytes := 0
	if ok {
		keptRows, bytes, ok = r.admit(base, keptRows, unsafe.SliceData(keptRows) == unsafe.SliceData(rows))
	}
	if key := r.schema.Key; ok && key != "" {
		ok = r.indexes[key].addBatch(kept, keptRows, true)
	}
	if !ok {
		r.truncate(base)
		return 0, r.batchError(ids, rows)
	}
	r.held, r.live, r.bytes = r.held+len(kept), r.live+len(kept), r.bytes+bytes
	for col, idx := range r.indexes {
		if col != r.schema.Key {
			idx.addBatch(kept, keptRows, false)
		}
	}
	return len(kept), nil
}

// adopt makes an empty relation read its records through l when l's rows have
// the relation's columns and declared types, at its first batch.
func (r *Relation) adopt(l *layout) {
	if r.next > 0 || l.types == nil || r.lay.same(l) || len(l.cols) != r.ncols {
		return
	}
	for j, c := range r.schema.Columns {
		if l.types[l.cols[j]].Type != c.Type {
			return
		}
	}
	r.lay = *l
}

// admit makes the placed rows of a batch, stored from position base on,
// readable through the relation's layout: a row the layout reads alike, its
// record checked when it was made, only has its key checked for NULL; any
// other is checked and copied into a record of the relation's, in its slot
// and in rows (a copy, if shared with the caller). It reports the records'
// bytes, and false at a row that is refused.
func (r *Relation) admit(base int, rows []Row, shared bool) ([]Row, int, bool) {
	key := r.schema.ColumnIndex(r.schema.Key)
	trusted, bytes := &r.lay, 0
	for i, row := range rows {
		if !row.Valid() {
			return rows, 0, false
		}
		if row.lay != trusted && row.lay.same(&r.lay) {
			trusted = row.lay
		}
		if row.lay != trusted {
			vals := row.Values()
			if r.CheckRow(vals) != nil {
				return rows, 0, false
			}
			if shared {
				rows, shared = slices.Clone(rows), false
			}
			row = Row{r.lay.encode(vals), &r.lay}
			rows[i], r.slotAt(base+i).rec = row, row.rec
		} else if key >= 0 && row.Value(key).IsNull() {
			return rows, 0, false
		}
		bytes += r.lay.recordSize(row.rec)
	}
	return rows, bytes, true
}

// place gives every id of the batch that is new a slot, bound to it, after
// the relation's last (Reserve has made the room), and returns the batch
// less the ids it repeats — the batch itself when it repeats none, a copy
// otherwise. It stops, reporting false, at an id that cannot be stored or
// that the relation held before the batch.
func (r *Relation) place(ids []TupleID, rows []Row) (kept []TupleID, keptRows []Row, ok bool) {
	base := r.next
	kept, keptRows = ids, rows
	for i, id := range ids {
		n := r.next - base
		if id <= 0 || id > MaxTupleID {
			return kept[:n], keptRows[:n], false
		}
		if at, held := r.claim(id, r.next); held {
			if at < base {
				return kept[:n], keptRows[:n], false
			}
			if n == i { // the first repeat
				kept, keptRows = slices.Clone(ids), slices.Clone(rows)
			}
			continue
		}
		c := r.lastChunk()
		if len(c.slots) == cap(c.slots) {
			c.grow(len(c.slots) + len(ids) - i)
		}
		c.slots = append(c.slots, slot{id: id, rec: rows[i].rec})
		r.next++
		if n < i {
			kept[n], keptRows[n] = id, rows[i]
		}
	}
	return kept[:r.next-base], keptRows[:r.next-base], true
}

// truncate takes back the slots from position base on and the id-table
// entries that name them: what a refused insertBatch had stored.
func (r *Relation) truncate(base int) {
	last := base >> slotChunkBits
	if last < len(r.chunks) {
		c := &r.chunks[last]
		clear(c.slots[base&(slotChunk-1):])
		c.slots = c.slots[:base&(slotChunk-1)]
		clear(r.chunks[last+1:])
		r.chunks = r.chunks[:last+1]
	}
	r.next = base
	r.rehash(r.live)
}

// batchError replays a refused batch the way a loop of insert takes it and
// returns the error of the first tuple that fails.
func (r *Relation) batchError(ids []TupleID, rows []Row) error {
	seen := make(map[TupleID]bool, len(ids))
	keys := make(map[Value]bool, len(ids))
	for i, id := range ids {
		if seen[id] {
			continue
		}
		if err := r.checkID(id); err != nil {
			return err
		}
		if !rows[i].Valid() {
			return fmt.Errorf("storage: %s tuple %d has no row", r.schema.Name, id)
		}
		if err := r.validate(rows[i].Values(), Row{}); err != nil {
			return err
		}
		if key := r.schema.Key; key != "" {
			kv := rows[i].Value(r.schema.ColumnIndex(key))
			if keys[kv] {
				return r.errDuplicateKey(kv)
			}
			keys[kv] = true
		}
		seen[id] = true
	}
	return fmt.Errorf("storage: %s refused a batch of %d tuples", r.schema.Name, len(ids))
}

// delete removes the tuple with the given id. It reports whether it existed.
// The slot stops referencing the record, so it is collectable as soon as no
// caller holds a row of it; the record itself is not touched.
func (r *Relation) delete(id TupleID) bool {
	s, pos := r.find(id)
	if s == nil {
		return false
	}
	row := r.row(s)
	r.bytes -= r.lay.recordSize(s.rec)
	s.id, s.rec = -id, nil
	r.live--
	if c := &r.chunks[pos>>slotChunkBits]; c.dead+1 == slotChunk {
		c.slots = nil
		r.held -= slotChunk
	} else {
		c.dead++
	}
	r.unindexRow(id, row)
	return true
}

// Get returns the tuple with the given id, its values decoded.
func (r *Relation) Get(id TupleID) (Tuple, bool) {
	s, _ := r.find(id)
	if s == nil {
		return Tuple{}, false
	}
	return Tuple{ID: id, Values: r.row(s).Values()}, true
}

// Row returns the row of the tuple with the given id.
func (r *Relation) Row(id TupleID) (Row, bool) {
	s, _ := r.find(id)
	if s == nil {
		return Row{}, false
	}
	return r.row(s), true
}

// AppendRows appends to dst the row of every id, the zero Row for an id no
// live tuple carries: Row for a block of ids, taken in passes — every id's
// first entry of the id table, then every slot — so that the cache misses of
// independent tuples overlap instead of queueing behind one another. The
// records are the caller's third pass.
func (r *Relation) AppendRows(dst []Row, ids []TupleID) []Row {
	if r.ids == nil {
		return append(dst, make([]Row, len(ids))...)
	}
	shift := bits.TrailingZeros(uint(len(r.ids)))
	var first [256]int32
	for len(ids) > 0 {
		block := ids[:min(len(ids), len(first))]
		ids = ids[len(block):]
		for i, id := range block {
			first[i] = r.ids[idHash(id, shift)]
		}
		for i, id := range block {
			var s *slot
			if first[i] != 0 && id > 0 {
				if s = r.slotAt(int(first[i] - 1)); s == nil || s.id != id {
					s, _ = r.find(id) // a collision: walk on from the start
				}
			}
			if s == nil {
				dst = append(dst, Row{})
			} else {
				dst = append(dst, r.row(s))
			}
		}
	}
	return dst
}

// Has reports whether a tuple with the given id is stored.
func (r *Relation) Has(id TupleID) bool {
	s, _ := r.find(id)
	return s != nil
}

// Scan calls fn for each live tuple, its values decoded, in insertion order
// until fn returns false or the relation is exhausted.
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.ScanRows(func(id TupleID, row Row) bool { return fn(Tuple{ID: id, Values: row.Values()}) })
}

// ScanRows is Scan handing out rows.
func (r *Relation) ScanRows(fn func(TupleID, Row) bool) { r.ScanRange(0, r.next, fn) }

// Extent returns the number of slot positions the relation has handed out,
// tombstones included: ScanRange addresses tuples by position in
// [0, Extent()).
func (r *Relation) Extent() int { return r.next }

// ScanRange is ScanRows restricted to the slot positions [lo, hi), so that
// several workers can split one relation without materializing its tuples.
// Tuples inserted by fn itself are not visited.
func (r *Relation) ScanRange(lo, hi int, fn func(TupleID, Row) bool) {
	hi = min(hi, r.next)
	for pos := max(lo, 0); pos < hi; pos++ {
		s := r.slotAt(pos)
		if s == nil {
			pos |= slotChunk - 1 // freed chunk: on to the next one
			continue
		}
		if s.id > 0 && !fn(s.id, r.row(s)) {
			return
		}
	}
}

// Tuples returns all live tuples in insertion order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.live)
	r.Scan(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CreateIndex builds an equality index on the named column unless it has one.
func (r *Relation) CreateIndex(column string) error {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	if _, ok := r.indexes[column]; ok {
		return nil
	}
	idx := &HashIndex{colIdx: ci}
	r.ScanRows(func(id TupleID, row Row) bool {
		idx.add(id, row)
		return true
	})
	r.indexes[column] = idx
	return nil
}

// HasIndex reports whether the named column has an equality index.
func (r *Relation) HasIndex(column string) bool {
	_, ok := r.indexes[column]
	return ok
}

// IndexedColumns returns the indexed column names, sorted.
func (r *Relation) IndexedColumns() []string {
	cols := make([]string, 0, len(r.indexes))
	for c := range r.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// Lookup returns the ids of tuples whose column equals v, in ascending id
// order. It uses the column's index when present and falls back to a scan.
func (r *Relation) Lookup(column string, v Value) ([]TupleID, error) {
	return r.AppendLookups(nil, nil, column, []Value{v})
}

// AppendLookups is Lookup for each of vals in order, every list appended to
// dst: a multi-value probe gathers its posting lists into one buffer, and
// the column's index resolves a block of values at a time (appendGroups).
// ends, unless nil, has room for one entry per value and receives the length
// of dst once that value is answered.
func (r *Relation) AppendLookups(dst []TupleID, ends []int, column string, vals []Value) ([]TupleID, error) {
	for range vals {
		if err := faultinject.Fire(faultinject.SiteStorageLookup); err != nil {
			return nil, fmt.Errorf("storage: lookup %s.%s: %w", r.schema.Name, column, err)
		}
	}
	if idx := r.indexes[column]; idx != nil {
		return idx.appendGroups(dst, ends, vals), nil
	}
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	for i, v := range vals {
		r.ScanRows(func(id TupleID, row Row) bool {
			if row.Value(ci).Equal(v) {
				dst = append(dst, id)
			}
			return true
		})
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	return dst, nil
}

// holds reports whether a live tuple other than skip (0: none) carries v in
// the named column: Lookup's matching (exact through a hash index,
// Equal by scan) without its fault site, or ids unless it must skip one.
func (r *Relation) holds(column string, v Value, skip TupleID) bool {
	if idx, ok := r.indexes[column]; ok {
		if skip == 0 {
			return idx.has(v)
		}
		ids := idx.appendGroups(nil, nil, []Value{v})
		return len(ids) > 1 || len(ids) == 1 && ids[0] != skip
	}
	ci := r.schema.ColumnIndex(column)
	found := false
	r.ScanRows(func(id TupleID, row Row) bool {
		found = id != skip && row.Value(ci).Equal(v)
		return !found
	})
	return found
}

// upsert is Database.Upsert on the relation: every check — ids, rows, and the
// primary key against the state the whole set leaves — comes before the
// first change, which is how it can be all or none.
func (r *Relation) upsert(ups []Upsert) (int, error) {
	vals := make([][]Value, len(ups))
	held := make([]*slot, len(ups))
	for i, u := range ups {
		if i > 0 && u.ID <= ups[i-1].ID {
			return i, fmt.Errorf("storage: %s upserts tuple %d after %d", r.schema.Name, u.ID, ups[i-1].ID)
		}
		if !u.Row.Valid() {
			return i, fmt.Errorf("storage: %s tuple %d has no row", r.schema.Name, u.ID)
		}
		if held[i], _ = r.find(u.ID); held[i] == nil {
			if err := r.checkID(u.ID); err != nil {
				return i, err
			}
		}
		vals[i] = u.Row.Values()
		if err := r.CheckRow(vals[i]); err != nil {
			return i, err
		}
	}
	if key := r.schema.Key; key != "" {
		ki := r.schema.ColumnIndex(key)
		placed := make(map[Value]bool, len(ups))
		for i := range ups {
			kv := vals[i][ki]
			if placed[kv] {
				return i, r.errDuplicateKey(kv)
			}
			placed[kv] = true
			// A key still held is free only if every tuple holding it is one
			// the set replaces.
			for _, id := range r.indexes[key].appendGroups(nil, nil, []Value{kv}) {
				at, found := slices.BinarySearchFunc(ups, id, func(u Upsert, id TupleID) int { return cmp.Compare(u.ID, id) })
				if !found || held[at] == nil {
					return i, r.errDuplicateKey(kv)
				}
			}
		}
	}
	// Every check has passed: release, then place. Held slots are rewritten
	// before anything is appended, so their pointers are still good.
	for i, s := range held {
		if s != nil {
			r.unindexRow(ups[i].ID, r.row(s))
		}
	}
	for i, s := range held {
		if s != nil {
			old := s.rec
			s.rec = r.lay.encode(vals[i])
			r.bytes += r.lay.recordSize(s.rec) - r.lay.recordSize(old)
			r.indexRow(ups[i].ID, r.row(s))
		}
	}
	for i, s := range held {
		if s == nil {
			rec := r.lay.encode(vals[i])
			if err := r.appendSlot(ups[i].ID, rec); err != nil {
				return i, err
			}
			r.indexRow(ups[i].ID, Row{rec, &r.lay})
		}
	}
	return 0, nil
}

// indexRow adds a tuple's row to every index; unindexRow takes it out.
func (r *Relation) indexRow(id TupleID, row Row) {
	for _, idx := range r.indexes {
		idx.add(id, row)
	}
}

func (r *Relation) unindexRow(id TupleID, row Row) {
	for _, idx := range r.indexes {
		idx.remove(id, row)
	}
}

// update replaces a tuple's values with a new record, revalidating types and
// key uniqueness and keeping every index current; the old record is left as it
// was for whoever still holds a row of it.
func (r *Relation) update(id TupleID, vals []Value) error {
	s, _ := r.find(id)
	if s == nil {
		return fmt.Errorf("storage: relation %s has no tuple %d", r.schema.Name, id)
	}
	old := r.row(s)
	if err := r.validate(vals, old); err != nil {
		return err
	}
	r.unindexRow(id, old)
	s.rec = r.lay.encode(vals)
	r.bytes += r.lay.recordSize(s.rec) - r.lay.recordSize(old.rec)
	r.indexRow(id, r.row(s))
	return nil
}
