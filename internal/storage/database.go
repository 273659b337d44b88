package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Database is a named collection of relations plus the foreign keys that
// relate them. Tuple ids are unique across the whole database so that an
// inverted-index posting (relation, attribute, tuple id) is unambiguous.
type Database struct {
	name   string
	rels   map[string]*Relation
	order  []string // relation names in creation order, for deterministic walks
	fks    []ForeignKey
	nextID TupleID
	// Strided allocation (SetIDStride): when idStride > 1, Insert only
	// allocates ids ≡ idOffset (mod idStride) — shard-local allocation
	// that stays globally unique.
	idOffset, idStride TupleID
	// Dirty tracking (dirty.go): nil unless EnableDirtyTracking — every
	// mutation below notifies it so incremental checkpoints can capture
	// only what changed.
	tracker *dirtyTracker
	// catalog is CatalogID's number; 0 until asked for, and after a change.
	catalog atomic.Uint64
}

// catalogs numbers every catalog any database of the process has had.
var catalogs atomic.Uint64

// CatalogID identifies the catalog — relations, schemas, foreign keys — as it
// stands: it changes when a relation is added or a foreign key added or
// removed, and no other database ever has the same one, so what is derived
// from a catalog can be kept under its id without holding the database.
// Readers may call it concurrently; a catalog change needs a mutation's
// exclusive access.
func (db *Database) CatalogID() uint64 {
	for {
		if id := db.catalog.Load(); id != 0 {
			return id
		}
		db.catalog.CompareAndSwap(0, catalogs.Add(1))
	}
}

func (db *Database) catalogChanged() { db.catalog.Store(0) }

// NewDatabase returns an empty database.
func NewDatabase(name string) *Database {
	return &Database{name: name, rels: make(map[string]*Relation), nextID: 1}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// CreateRelation adds an empty relation for the schema.
func (db *Database) CreateRelation(s *Schema) (*Relation, error) {
	if s == nil {
		return nil, fmt.Errorf("storage: nil schema")
	}
	if _, ok := db.rels[s.Name]; ok {
		return nil, fmt.Errorf("storage: relation %s already exists", s.Name)
	}
	db.catalogChanged()
	r := newRelation(s.Clone())
	db.rels[s.Name] = r
	db.order = append(db.order, s.Name)
	return r, nil
}

// MustCreateRelation is CreateRelation that panics on error, for fixtures.
func (db *Database) MustCreateRelation(s *Schema) *Relation {
	r, err := db.CreateRelation(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// Table is Relation as a Reader hands it out.
func (db *Database) Table(name string) Table {
	if r := db.rels[name]; r != nil {
		return r
	}
	return nil
}

// RelationNames returns the relation names in creation order.
func (db *Database) RelationNames() []string {
	return append([]string(nil), db.order...)
}

// NumRelations returns the number of relations.
func (db *Database) NumRelations() int { return len(db.order) }

// TotalTuples returns the number of live tuples across all relations.
func (db *Database) TotalTuples() int {
	n := 0
	for _, name := range db.order {
		n += db.rels[name].Len()
	}
	return n
}

// AddForeignKey declares a foreign key and validates that both endpoints
// exist. It does not retro-check existing data; see CheckIntegrity.
func (db *Database) AddForeignKey(fk ForeignKey) error {
	from := db.rels[fk.FromRelation]
	if from == nil {
		return fmt.Errorf("storage: foreign key %s: no relation %s", fk, fk.FromRelation)
	}
	if !from.Schema().HasColumn(fk.FromColumn) {
		return fmt.Errorf("storage: foreign key %s: %s has no column %s", fk, fk.FromRelation, fk.FromColumn)
	}
	to := db.rels[fk.ToRelation]
	if to == nil {
		return fmt.Errorf("storage: foreign key %s: no relation %s", fk, fk.ToRelation)
	}
	if !to.Schema().HasColumn(fk.ToColumn) {
		return fmt.Errorf("storage: foreign key %s: %s has no column %s", fk, fk.ToRelation, fk.ToColumn)
	}
	db.catalogChanged()
	db.fks = append(db.fks, fk)
	return nil
}

// ForeignKeys returns the declared foreign keys.
func (db *Database) ForeignKeys() []ForeignKey {
	return append([]ForeignKey(nil), db.fks...)
}

// SetForeignKeys replaces the declared foreign keys wholesale, without
// validating their endpoints again.
func (db *Database) SetForeignKeys(fks []ForeignKey) {
	db.catalogChanged()
	db.fks = append([]ForeignKey(nil), fks...)
}

// Insert adds a tuple to the named relation and returns its id. The values
// are copied into the tuple's record — here and in InsertWithID and Update —
// so the caller keeps its slice.
func (db *Database) Insert(relation string, vals ...Value) (TupleID, error) {
	r := db.rels[relation]
	if r == nil {
		return 0, fmt.Errorf("storage: no relation %s", relation)
	}
	id := db.alignID(db.nextID)
	if id > MaxTupleID {
		return 0, fmt.Errorf("storage: %s has allocated every id up to %d: %w", db.name, MaxTupleID, ErrOutOfIDs)
	}
	if err := r.insert(id, vals); err != nil {
		return 0, err
	}
	db.nextID = id + 1
	db.tracker.mark(relation, id)
	return id, nil
}

// alignID advances id to the database's stride class: the smallest id' >= id
// with id' ≡ offset (mod stride). With no stride configured it is the
// identity.
func (db *Database) alignID(id TupleID) TupleID {
	if db.idStride <= 1 {
		return id
	}
	rem := id % db.idStride
	if rem == db.idOffset {
		return id
	}
	id += (db.idOffset - rem + db.idStride) % db.idStride
	return id
}

// SetIDStride restricts the ids Insert allocates to the congruence class
// id ≡ offset (mod stride). A hash-partitioned shard sets stride to the
// shard count and offset to its own index, so every shard allocates ids it
// owns and the ids stay globally unique without any cross-shard
// coordination. stride <= 1 clears the restriction. The setting is not
// persisted: a sharded coordinator re-applies it after each shard
// recovers.
func (db *Database) SetIDStride(offset, stride TupleID) error {
	if stride <= 1 {
		db.idOffset, db.idStride = 0, 0
		return nil
	}
	if offset < 0 || offset >= stride {
		return fmt.Errorf("storage: id stride offset %d out of range [0,%d)", offset, stride)
	}
	db.idOffset, db.idStride = offset, stride
	return nil
}

// InsertWithID adds a tuple with a caller-chosen id: the engine's apply and
// the loaders, whose tuples must keep the ids they have elsewhere. It
// rejects an id the relation already holds.
func (db *Database) InsertWithID(relation string, id TupleID, vals ...Value) error {
	r, err := db.insertable(relation, id)
	if err == nil {
		err = r.insert(id, vals)
	}
	return db.inserted(relation, id, err)
}

// InsertRow is InsertWithID with the values of row, a row stored elsewhere.
// A row the relation reads alike — one of a relation of the same declared
// types, such as the source a shard is cut from — shares its record; any
// other is checked and copied. shard.Partition fills its shards with it.
func (db *Database) InsertRow(relation string, id TupleID, row Row) error {
	r, err := db.insertable(relation, id)
	switch {
	case err != nil:
	case !row.Valid():
		err = fmt.Errorf("storage: %s tuple %d has no row", relation, id)
	case row.lay.same(&r.lay):
		err = r.share(id, row)
	default:
		err = r.insert(id, row.Values())
	}
	return db.inserted(relation, id, err)
}

// insertable returns the named relation, refusing an id it cannot take and
// a relation out of slot positions. Every id handed out is below the
// watermark, so one at or above it cannot be held and needs no lookup — the
// engine's insert path, which always arrives with NextTupleID, pays none
// until that passes MaxTupleID.
func (db *Database) insertable(relation string, id TupleID) (*Relation, error) {
	r := db.rels[relation]
	if r == nil {
		return nil, fmt.Errorf("storage: no relation %s", relation)
	}
	if r.next == math.MaxInt32 {
		return nil, r.errOutOfSlots()
	}
	if id < db.nextID || id > MaxTupleID {
		if err := r.checkID(id); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// inserted raises the watermark past id and marks it dirty, unless err
// refused the insert.
func (db *Database) inserted(relation string, id TupleID, err error) error {
	if err != nil {
		return err
	}
	if id >= db.nextID {
		db.nextID = id + 1
	}
	db.tracker.mark(relation, id)
	return nil
}

// Upsert stores ups, ascending by id, in the named relation as one change,
// all or none: a tuple the relation holds gets its new row in its place and
// every other id is inserted after the relation's last tuple. Its primary key
// is checked once every replaced tuple's old key is released, so the set may
// move keys among its tuples — a cycle such as A:3→7, B:7→3 included — as
// long as it leaves them unique. Applying a delta checkpoint, which holds
// only each changed tuple's final row, needs exactly that. On an error it
// also reports which of ups was refused.
func (db *Database) Upsert(relation string, ups []Upsert) (int, error) {
	r := db.rels[relation]
	if r == nil {
		return 0, fmt.Errorf("storage: no relation %s", relation)
	}
	if at, err := r.upsert(ups); err != nil {
		return at, err
	}
	for _, u := range ups {
		if u.ID >= db.nextID {
			db.nextID = u.ID + 1
		}
		db.tracker.mark(relation, u.ID)
	}
	return 0, nil
}

// NextTupleID returns the id the next Insert would assign. The persistence
// layer snapshots it so a recovered database keeps allocating fresh ids
// even when the highest-id tuple has been deleted.
func (db *Database) NextTupleID() TupleID { return db.nextID }

// SetNextTupleID raises the next-id watermark (it never lowers it: tuple
// ids must stay unique for the lifetime of a database, across restarts).
// The snapshot decoder calls it with the persisted watermark before
// replaying tuples; MaxTupleID+1, every id allocated, is as high as it goes.
func (db *Database) SetNextTupleID(id TupleID) {
	if id > db.nextID {
		db.nextID = min(id, MaxTupleID+1)
	}
}

// Delete removes a tuple from the named relation.
func (db *Database) Delete(relation string, id TupleID) (bool, error) {
	r := db.rels[relation]
	if r == nil {
		return false, fmt.Errorf("storage: no relation %s", relation)
	}
	ok := r.delete(id)
	if ok {
		db.tracker.markDeleted(relation, id)
	}
	return ok, nil
}

// CreateJoinIndexes builds hash indexes on every column that participates in
// a declared foreign key, mirroring the paper's "indexes on all join
// attributes" experimental setup.
func (db *Database) CreateJoinIndexes() error {
	for _, fk := range db.fks {
		if err := db.rels[fk.FromRelation].CreateIndex(fk.FromColumn); err != nil {
			return err
		}
		if err := db.rels[fk.ToRelation].CreateIndex(fk.ToColumn); err != nil {
			return err
		}
	}
	return nil
}

// IntegrityViolation describes one referential-integrity failure.
type IntegrityViolation struct {
	ForeignKey ForeignKey
	TupleID    TupleID
	Value      Value
}

// String renders the violation for error messages.
func (v IntegrityViolation) String() string {
	return fmt.Sprintf("tuple %d of %s: %s=%s has no match in %s.%s",
		v.TupleID, v.ForeignKey.FromRelation, v.ForeignKey.FromColumn,
		v.Value.String(), v.ForeignKey.ToRelation, v.ForeignKey.ToColumn)
}

// CheckIntegrity verifies every declared foreign key of db over its current
// data and returns all violations found. NULL references are allowed. A
// reference is resolved through the target column's index when it has one (a
// scan of the target per referencing tuple otherwise) and never through the
// Lookup fault site: an in-memory read cannot fail, so no failure can pass
// for a satisfied reference.
func CheckIntegrity(db Reader) []IntegrityViolation {
	var out []IntegrityViolation
	for _, fk := range db.ForeignKeys() {
		references(db, fk, func(id TupleID, v Value, held bool) {
			if !held {
				out = append(out, IntegrityViolation{ForeignKey: fk, TupleID: id, Value: v})
			}
		})
	}
	return out
}

// references calls fn for every non-NULL reference of fk in db, with whether
// it is satisfied, unless db lacks a relation or column of fk: then false.
func references(db Reader, fk ForeignKey, fn func(id TupleID, v Value, held bool)) bool {
	from, to := db.Table(fk.FromRelation), db.Table(fk.ToRelation)
	if from == nil || to == nil || !to.Schema().HasColumn(fk.ToColumn) || !from.Schema().HasColumn(fk.FromColumn) {
		return false
	}
	fi := from.Schema().ColumnIndex(fk.FromColumn)
	from.ScanRows(func(id TupleID, row Row) bool {
		if v := row.Value(fi); !v.IsNull() {
			fn(id, v, to.holds(fk.ToColumn, v, 0))
		}
		return true
	})
	return true
}

// ErrReferenced refuses a delete, or an update, that takes from a foreign
// key the last tuple holding a value the key still references.
var ErrReferenced = errors.New("storage: tuple is referenced")

// ErrDangling refuses a write of a foreign-key value that no tuple of the
// referenced relation holds.
var ErrDangling = errors.New("storage: reference has no match")

// WriteOp is the kind of tuple write CheckWrite judges.
type WriteOp uint8

const (
	WriteInsert WriteOp = iota + 1
	WriteUpdate
	WriteDelete
)

// CheckWrite refuses a write that would leave the database parts make up —
// its partitions, sharing one catalog, parts[owner] the one that holds tuple
// id or is to hold it — in a state storage cannot hold or CheckIntegrity
// reports, so the engine can refuse it before anything is logged. In this
// order, it refuses
//   - an unknown relation, an insert of an id the owner cannot take, and an
//     update or a delete of an id the owner does not hold (ErrNoTuple);
//   - new values that do not fit (Relation.Fit);
//   - a primary-key value another tuple holds (ErrDuplicateKey);
//   - a non-NULL foreign-key value no tuple of the referenced relation holds
//     (ErrDangling; the tuple itself may, on a foreign key into its own
//     relation);
//   - a delete, or an update that changes the value, of the last holder of a
//     value a foreign key references from another tuple (ErrReferenced).
//
// It returns vals as the relation stores them (Fit), which the checks read; a
// key or a reference is looked up converted to its column's type (ColType.Key)
// as a join looks a value up. An insert's check allocates nothing.
func CheckWrite(parts []*Database, owner int, op WriteOp, relation string, id TupleID, vals []Value) ([]Value, error) {
	r := parts[owner].rels[relation]
	if r == nil {
		return nil, fmt.Errorf("storage: no relation %s", relation)
	}
	held := func(rel, column string, v Value) bool { // by a tuple other than id
		for _, db := range parts {
			if db.rels[rel].holds(column, v, id) {
				return true
			}
		}
		return false
	}
	var old Row
	fks := parts[owner].fks
	if op == WriteInsert {
		if _, err := parts[owner].insertable(relation, id); err != nil {
			return nil, err
		}
	} else if old, _ = r.Row(id); !old.Valid() {
		return nil, r.errNoTuple(id)
	}
	if op != WriteDelete {
		var err error
		if vals, err = r.Fit(id, vals); err != nil {
			return nil, err
		}
		if key := r.schema.Key; key != "" {
			if kv := vals[r.schema.ColumnIndex(key)]; held(relation, key, kv) {
				return nil, r.errDuplicateKey(kv, id)
			}
		}
		for i := range fks {
			fk := &fks[i]
			if fk.FromRelation != relation {
				continue
			}
			v, self := vals[r.schema.ColumnIndex(fk.FromColumn)], false
			if ti := r.schema.ColumnIndex(fk.ToColumn); fk.ToRelation == relation { // the tuple may hold v itself
				k, ok := r.schema.Columns[ti].Type.Key(v)
				self = ok && k == vals[ti]
			}
			if !v.IsNull() && !self && !held(fk.ToRelation, fk.ToColumn, v) {
				return nil, fmt.Errorf("%w: %s %d: %s=%s has no match in %s.%s",
					ErrDangling, relation, id, fk.FromColumn, v.String(), fk.ToRelation, fk.ToColumn)
			}
		}
	}
	if op == WriteInsert {
		return vals, nil
	}
	for i := range fks {
		fk := &fks[i]
		if fk.ToRelation != relation {
			continue
		}
		ti := r.schema.ColumnIndex(fk.ToColumn)
		v := old.Value(ti)
		if v.IsNull() || op == WriteUpdate && v == vals[ti] {
			continue
		}
		if !held(relation, fk.ToColumn, v) && held(fk.FromRelation, fk.FromColumn, v) {
			return nil, fmt.Errorf("%w: %s %d holds %s=%s, which %s.%s references",
				ErrReferenced, relation, id, fk.ToColumn, v.String(), fk.FromRelation, fk.FromColumn)
		}
	}
	return vals, nil
}

// Stats summarises a database for reporting.
type Stats struct {
	Relations int
	Tuples    int
	PerRel    map[string]int
}

// Stats returns relation and tuple counts.
func (db *Database) Stats() Stats {
	st := Stats{Relations: len(db.order), PerRel: make(map[string]int, len(db.order))}
	for _, name := range db.order {
		n := db.rels[name].Len()
		st.PerRel[name] = n
		st.Tuples += n
	}
	return st
}

// Layout counts what the resident data is made of, beyond live tuples: the
// slots held in memory, how many of them are tombstones left by deletes, the
// bytes of the live tuples' records, the distinct keys across all hash
// indexes and the bytes of the ids in their lists.
type Layout struct {
	Slots        int `json:"slots"`
	DeadSlots    int `json:"dead_slots"`
	RowBytes     int `json:"row_bytes"`
	IndexEntries int `json:"index_entries"`
	ListBytes    int `json:"list_bytes"`
}

// Layout returns the database's layout counts. They are maintained per
// relation and index, so the cost is proportional to the number of those.
func (db *Database) Layout() Layout {
	var l Layout
	for _, name := range db.order {
		r := db.rels[name]
		l.Slots += r.held
		l.DeadSlots += r.held - r.live
		l.RowBytes += r.bytes
		for _, idx := range r.indexes {
			l.IndexEntries += idx.Cardinality()
			l.ListBytes += 4 * (idx.ints.ids + idx.vals.ids)
		}
	}
	return l
}

// String renders a short summary like name{R1:10, R2:20}.
func (db *Database) String() string {
	names := append([]string(nil), db.order...)
	sort.Strings(names)
	s := db.name + "{"
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%d", n, db.rels[n].Len())
	}
	return s + "}"
}

// Update replaces the values of an existing tuple, maintaining indexes and
// primary-key uniqueness. The tuple keeps its id.
func (db *Database) Update(relation string, id TupleID, vals []Value) error {
	r := db.rels[relation]
	if r == nil {
		return fmt.Errorf("storage: no relation %s", relation)
	}
	if err := r.update(id, vals); err != nil {
		return err
	}
	db.tracker.mark(relation, id)
	return nil
}
