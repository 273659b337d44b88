package storage

import (
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

// slot is the physical storage of a tuple: 16 bytes, its id and the first of
// its ncols values. The row is the slice insert or update was given — the
// relation owns it from then on, and neither the relation nor the caller
// writes it again — so a Tuple handed out by Get or Scan stays valid
// whatever happens to the slot afterwards (CaptureDirty and the engine's
// rollback paths depend on it), and one row may back a tuple in several
// databases. Deleting negates the id and drops the row, leaving a tombstone
// so that positions remain stable for live scans.
type slot struct {
	id  TupleID // negated once the tuple is deleted
	row *Value
}

// Slots live in chunks of slotChunk positions, position p in chunk
// p>>slotChunkBits: the last chunk grows by doubling up to the cap, so a
// 40-tuple D′ relation costs one small allocation and a 150k-tuple base
// relation never carries more than a chunk of slack.
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
	chunks []chunk
	next   int // slot positions handed out: the next insert takes this one
	held   int // slots in memory, live or tombstone (freed chunks excluded)
	live   int
	// ids is an open-addressed table from tuple id to slot position + 1
	// (0 = empty), hashed by idHash and probed linearly. The key is not
	// stored: an entry matches id when the slot it names carries that id,
	// and an entry whose slot has died, or whose chunk has been freed,
	// matches nothing, so delete never touches the table. It is nil until
	// the first insert and rebuilt from its live entries at 3/4 load.
	ids     []int32
	idsUsed int  // non-empty entries, dead ones included
	runs    bool // the equality indexes are RunIndexes, not HashIndexes
	indexes map[string]index
	ordered map[string]*OrderedIndex
}

// newRelation builds an empty relation for the schema, its equality indexes
// of the kind its database was constructed with. If the schema has a primary
// key, an index on it is created eagerly so uniqueness checks need no scan.
func newRelation(s *Schema, runs bool) *Relation {
	r := &Relation{
		schema:  s,
		ncols:   len(s.Columns),
		runs:    runs,
		indexes: make(map[string]index),
		ordered: make(map[string]*OrderedIndex),
	}
	if s.Key != "" {
		r.indexes[s.Key] = r.newIndex(s.ColumnIndex(s.Key))
	}
	return r
}

func (r *Relation) newIndex(colIdx int) index {
	if r.runs {
		return &RunIndex{colIdx: colIdx}
	}
	return &HashIndex{colIdx: colIdx}
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

// tuple returns the live slot's tuple; the row holds exactly ncols values.
func (r *Relation) tuple(s *slot) Tuple {
	return Tuple{ID: s.id, Values: unsafe.Slice(s.row, r.ncols)}
}

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
func (r *Relation) appendSlot(id TupleID, row []Value) error {
	if r.next == math.MaxInt32 {
		return fmt.Errorf("storage: %s is out of slot positions: %w", r.schema.Name, ErrOutOfIDs)
	}
	c := r.lastChunk()
	if len(c.slots) == cap(c.slots) {
		c.grow(max(2*cap(c.slots), 8))
	}
	c.slots = append(c.slots, slot{id: id, row: unsafe.SliceData(row)})
	r.bind(id, r.next)
	r.next++
	r.held++
	r.live++
	return nil
}

// validate checks arity, column types and the primary key of a candidate
// row. old is the row being replaced by an update (nil for an insert): a key
// value equal to its own is not a duplicate.
func (r *Relation) validate(vals, old []Value) error {
	if err := r.checkRow(vals); err != nil {
		return err
	}
	if key := r.schema.Key; key != "" {
		ki := r.schema.ColumnIndex(key)
		if kv := vals[ki]; (old == nil || !kv.Equal(old[ki])) && r.indexes[key].has(kv) {
			return r.errDuplicateKey(kv)
		}
	}
	return nil
}

// checkRow is the part of validate that needs no index: arity, column types
// and a primary key that is not NULL.
func (r *Relation) checkRow(vals []Value) error {
	if len(vals) != r.ncols {
		return fmt.Errorf("storage: %s expects %d values, got %d",
			r.schema.Name, r.ncols, len(vals))
	}
	for i, v := range vals {
		col := r.schema.Columns[i]
		if !col.Type.Accepts(v.Kind()) {
			return fmt.Errorf("storage: %s.%s is %s, cannot store %s value %q",
				r.schema.Name, col.Name, col.Type, v.Kind(), v.String())
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

// insert stores a tuple with the given id. vals becomes the stored row: the
// caller must not write it afterwards.
func (r *Relation) insert(id TupleID, vals []Value) (TupleID, error) {
	if err := r.validate(vals, nil); err != nil {
		return 0, err
	}
	t := Tuple{ID: id, Values: vals}
	if err := r.appendSlot(id, t.Values); err != nil {
		return 0, err
	}
	for _, idx := range r.indexes {
		idx.add(t)
	}
	for _, idx := range r.ordered {
		idx.add(t)
	}
	return id, nil
}

// insertBatch stores the tuples (ids[i], rows[i]) in order, all or none: one
// reservation, one walk of the id table, one validation pass and one update
// per index, with the checks a loop of insert would make. An id the batch
// repeats is stored once, under its first row, and its later rows are not
// looked at; an id the relation held before is an error. It returns how many
// tuples it stored. After an error the relation and its indexes hold what
// they held before, and the error is the one the first failing tuple would
// have met in that loop.
func (r *Relation) insertBatch(ids []TupleID, rows [][]Value) (int, error) {
	if int64(r.next)+int64(len(ids)) > math.MaxInt32 {
		return 0, fmt.Errorf("storage: %s is out of slot positions: %w", r.schema.Name, ErrOutOfIDs)
	}
	base := r.next
	r.Reserve(len(ids))
	kept, keptRows, ok := r.place(ids, rows)
	for _, row := range keptRows {
		ok = ok && r.checkRow(row) == nil
	}
	if key := r.schema.Key; ok && key != "" {
		ok = r.indexes[key].addBatch(kept, keptRows, true)
	}
	if !ok {
		r.truncate(base)
		return 0, r.batchError(ids, rows)
	}
	r.held, r.live = r.held+len(kept), r.live+len(kept)
	for col, idx := range r.indexes {
		if col != r.schema.Key {
			idx.addBatch(kept, keptRows, false)
		}
	}
	for _, idx := range r.ordered {
		for i, id := range kept {
			idx.add(Tuple{ID: id, Values: keptRows[i]})
		}
	}
	return len(kept), nil
}

// place gives every id of the batch that is new a slot, bound to it, after
// the relation's last (Reserve has made the room), and returns the batch
// less the ids it repeats — the batch itself when it repeats none, a copy
// otherwise. It stops, reporting false, at an id that cannot be stored or
// that the relation held before the batch.
func (r *Relation) place(ids []TupleID, rows [][]Value) (kept []TupleID, keptRows [][]Value, ok bool) {
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
		c.slots = append(c.slots, slot{id: id, row: unsafe.SliceData(rows[i])})
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
func (r *Relation) batchError(ids []TupleID, rows [][]Value) error {
	seen := make(map[TupleID]bool, len(ids))
	keys := make(map[Value]bool, len(ids))
	for i, id := range ids {
		if seen[id] {
			continue
		}
		if err := r.checkID(id); err != nil {
			return err
		}
		if err := r.validate(rows[i], nil); err != nil {
			return err
		}
		if key := r.schema.Key; key != "" {
			kv := rows[i][r.schema.ColumnIndex(key)]
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
// The slot stops referencing the row, so the values and their strings are
// collectable as soon as no caller holds the tuple; the row itself is not
// touched.
func (r *Relation) delete(id TupleID) bool {
	s, pos := r.find(id)
	if s == nil {
		return false
	}
	t := r.tuple(s)
	s.id, s.row = -id, nil
	r.live--
	if c := &r.chunks[pos>>slotChunkBits]; c.dead+1 == slotChunk {
		c.slots = nil
		r.held -= slotChunk
	} else {
		c.dead++
	}
	for _, idx := range r.indexes {
		idx.remove(t)
	}
	for _, idx := range r.ordered {
		idx.remove(t)
	}
	return true
}

// Get returns the tuple with the given id.
func (r *Relation) Get(id TupleID) (Tuple, bool) {
	s, _ := r.find(id)
	if s == nil {
		return Tuple{}, false
	}
	return r.tuple(s), true
}

// AppendTuples appends the live tuples among ids to dst, in ids order: Get
// for a block of ids, taken in passes — every id's first entry of the id
// table, then every slot — so that the cache misses of independent tuples
// overlap instead of queueing behind one another. The rows are the caller's
// third pass.
func (r *Relation) AppendTuples(dst []Tuple, ids []TupleID) []Tuple {
	if r.ids == nil {
		return dst
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
			if first[i] == 0 || id <= 0 {
				continue
			}
			s := r.slotAt(int(first[i] - 1))
			if s == nil || s.id != id {
				if s, _ = r.find(id); s == nil { // a collision: walk on from the start
					continue
				}
			}
			dst = append(dst, r.tuple(s))
		}
	}
	return dst
}

// Has reports whether a tuple with the given id is stored. It makes a
// relation usable as an id set (sqlx.IDSet) without materializing its ids.
func (r *Relation) Has(id TupleID) bool {
	s, _ := r.find(id)
	return s != nil
}

// Scan calls fn for each live tuple in insertion order until fn returns
// false or the relation is exhausted.
func (r *Relation) Scan(fn func(Tuple) bool) { r.ScanRange(0, r.next, fn) }

// Extent returns the number of slot positions the relation has handed out,
// tombstones included: ScanRange addresses tuples by position in
// [0, Extent()).
func (r *Relation) Extent() int { return r.next }

// ScanRange is Scan restricted to the slot positions [lo, hi), so that
// several workers can split one relation without materializing its tuples.
// Tuples inserted by fn itself are not visited.
func (r *Relation) ScanRange(lo, hi int, fn func(Tuple) bool) {
	hi = min(hi, r.next)
	for pos := max(lo, 0); pos < hi; pos++ {
		s := r.slotAt(pos)
		if s == nil {
			pos |= slotChunk - 1 // freed chunk: on to the next one
			continue
		}
		if s.id > 0 && !fn(r.tuple(s)) {
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
	idx := r.newIndex(ci)
	r.Scan(func(t Tuple) bool {
		idx.add(t)
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

// CreateOrderedIndex builds (or returns) a B-tree index on the named
// column, enabling index-backed range scans.
func (r *Relation) CreateOrderedIndex(column string) (*OrderedIndex, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	if idx, ok := r.ordered[column]; ok {
		return idx, nil
	}
	idx := newOrderedIndex(column, ci)
	r.Scan(func(t Tuple) bool {
		idx.add(t)
		return true
	})
	r.ordered[column] = idx
	return idx, nil
}

// OrderedIndexOn returns the ordered index on the named column, or nil.
func (r *Relation) OrderedIndexOn(column string) *OrderedIndex { return r.ordered[column] }

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
	return r.AppendLookup(nil, column, v)
}

// AppendLookup is Lookup appending to dst.
func (r *Relation) AppendLookup(dst []TupleID, column string, v Value) ([]TupleID, error) {
	return r.AppendLookups(dst, nil, column, []Value{v})
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
	// A static call per kind of index: through the interface vals and ends
	// would escape, and callers keep both in stack arrays.
	switch idx := r.indexes[column].(type) {
	case *HashIndex:
		return idx.appendGroups(dst, ends, vals), nil
	case *RunIndex:
		return idx.appendGroups(dst, ends, vals), nil
	}
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	for i, v := range vals {
		r.Scan(func(t Tuple) bool {
			if t.Values[ci].Equal(v) {
				dst = append(dst, t.ID)
			}
			return true
		})
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	return dst, nil
}

// holds reports whether a live tuple carries v in the named column:
// AppendLookup's matching (exact through a hash index, Equal by scan) without
// materializing ids and without its fault site.
func (r *Relation) holds(column string, v Value) bool {
	if idx, ok := r.indexes[column]; ok {
		return idx.has(v)
	}
	ci := r.schema.ColumnIndex(column)
	found := false
	r.Scan(func(t Tuple) bool {
		found = t.Values[ci].Equal(v)
		return !found
	})
	return found
}

// DistinctValues returns the distinct non-NULL values of the named column,
// sorted by Value.Compare (numerically equal values of different kinds, which
// Compare ties, order by kind). An index on the column supplies them from its
// keys — a RunIndex in this order already; the tuples are scanned otherwise.
func (r *Relation) DistinctValues(column string) ([]Value, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: relation %s has no column %s", r.schema.Name, column)
	}
	var vals []Value
	if idx, ok := r.indexes[column]; ok {
		var sorted bool
		if vals, sorted = idx.keys(); sorted {
			return vals, nil
		}
	} else {
		vals = make([]Value, 0, r.live)
		r.Scan(func(t Tuple) bool {
			if v := t.Values[ci]; !v.IsNull() {
				vals = append(vals, v)
			}
			return true
		})
	}
	slices.SortFunc(vals, func(a, b Value) int {
		if c := a.Compare(b); c != 0 {
			return c
		}
		return int(a.kind) - int(b.kind)
	})
	return slices.Compact(vals), nil
}

// update replaces a tuple's values, revalidating types and key uniqueness
// and keeping every index current. vals becomes the stored row (the caller
// must not write it afterwards); the old row is left as it was for whoever
// still holds it.
func (r *Relation) update(id TupleID, vals []Value) error {
	s, _ := r.find(id)
	if s == nil {
		return fmt.Errorf("storage: relation %s has no tuple %d", r.schema.Name, id)
	}
	old := r.tuple(s)
	if err := r.validate(vals, old.Values); err != nil {
		return err
	}
	for _, idx := range r.indexes {
		idx.remove(old)
	}
	for _, idx := range r.ordered {
		idx.remove(old)
	}
	updated := Tuple{ID: id, Values: vals}
	s.row = unsafe.SliceData(updated.Values)
	for _, idx := range r.indexes {
		idx.add(updated)
	}
	for _, idx := range r.ordered {
		idx.add(updated)
	}
	return nil
}
