package storage

import (
	"fmt"
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
	runs   bool // relations index with RunIndexes (NewBatchDatabase)
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
// stands: it changes when a relation or a foreign key is added or removed, and
// no other database ever has the same one, so what is derived from a catalog
// can be kept under its id without holding the database. Readers may call it
// concurrently; a catalog change needs a mutation's exclusive access.
func (db *Database) CatalogID() uint64 {
	for {
		if id := db.catalog.Load(); id != 0 {
			return id
		}
		db.catalog.CompareAndSwap(0, catalogs.Add(1))
	}
}

// catalogChanged retires the id; a result database, never asked, pays a load.
func (db *Database) catalogChanged() {
	if db.catalog.Load() != 0 {
		db.catalog.Store(0)
	}
}

// NewDatabase returns an empty database whose equality indexes are
// HashIndexes: the kind to mutate a tuple at a time.
func NewDatabase(name string) *Database {
	return &Database{name: name, rels: make(map[string]*Relation), nextID: 1}
}

// NewBatchDatabase returns an empty database meant to be filled by
// InsertBatch and then read — a result database: its equality indexes are
// RunIndexes. Every operation of a NewDatabase works on it, single inserts
// and deletes in time linear in the relation.
func NewBatchDatabase(name string) *Database {
	db := NewDatabase(name)
	db.runs = true
	return db
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
	r := newRelation(s.Clone(), db.runs)
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

// SetForeignKeys replaces the declared foreign keys wholesale. The précis
// generator uses it to trim constraints a budget-truncated answer can no
// longer satisfy; endpoints are not re-validated, so callers should pass a
// subset of keys previously accepted by AddForeignKey.
func (db *Database) SetForeignKeys(fks []ForeignKey) {
	db.catalogChanged()
	db.fks = append([]ForeignKey(nil), fks...)
}

// Insert adds a tuple to the named relation and returns its id. The
// relation keeps vals as the tuple's row — here and in InsertWithID and
// Update — so a caller passing a slice (vals...) must not write it again.
func (db *Database) Insert(relation string, vals ...Value) (TupleID, error) {
	r := db.rels[relation]
	if r == nil {
		return 0, fmt.Errorf("storage: no relation %s", relation)
	}
	id := db.alignID(db.nextID)
	if id > MaxTupleID {
		return 0, fmt.Errorf("storage: %s has allocated every id up to %d: %w", db.name, MaxTupleID, ErrOutOfIDs)
	}
	got, err := r.insert(id, vals)
	if err != nil {
		return 0, err
	}
	db.nextID = id + 1
	db.tracker.mark(relation, got)
	return got, nil
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
// rollback paths, the loaders and the partitioner, whose tuples must keep
// the ids they have elsewhere. It rejects an id the relation already holds
// itself, because those callers do not look first; the result-database
// generator, which does, goes through InsertBatch.
func (db *Database) InsertWithID(relation string, id TupleID, vals ...Value) error {
	r := db.rels[relation]
	if r == nil {
		return fmt.Errorf("storage: no relation %s", relation)
	}
	// Every id handed out is below the watermark, so one at or above it
	// cannot be held and needs no lookup — the engine's insert path, which
	// always arrives with NextTupleID, pays none until that passes MaxTupleID.
	if id < db.nextID || id > MaxTupleID {
		if err := r.checkID(id); err != nil {
			return err
		}
	}
	if _, err := r.insert(id, vals); err != nil {
		return err
	}
	if id >= db.nextID {
		db.nextID = id + 1
	}
	db.tracker.mark(relation, id)
	return nil
}

// InsertBatch adds the tuples (ids[i], rows[i]) to the named relation in
// order and returns how many it added: a loop of InsertWithID done in one
// step (Relation.insertBatch), except that an id occurring twice in the
// batch is added once, under its first row, and that a batch any of whose
// tuples would be refused adds none — the generator treats an insert error
// as fatal, so all-or-nothing is the simpler contract. Every index is current
// when it returns. The relation keeps each rows[i], not the rows slice.
func (db *Database) InsertBatch(relation string, ids []TupleID, rows [][]Value) (int, error) {
	r := db.rels[relation]
	if r == nil {
		return 0, fmt.Errorf("storage: no relation %s", relation)
	}
	if len(ids) != len(rows) {
		return 0, fmt.Errorf("storage: batch of %d ids and %d rows", len(ids), len(rows))
	}
	n, err := r.insertBatch(ids, rows)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		if id >= db.nextID {
			db.nextID = id + 1
		}
		db.tracker.mark(relation, id)
	}
	return n, nil
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

// CheckIntegrity verifies every declared foreign key over the current data
// and returns all violations found. NULL references are allowed. A reference
// is resolved through the target column's hash index when it has one (one
// scan of the target per referencing tuple otherwise) and never through the
// Lookup fault site: an in-memory read cannot fail, so no failure can pass
// for a satisfied reference.
func (db *Database) CheckIntegrity() []IntegrityViolation {
	var out []IntegrityViolation
	for _, fk := range db.fks {
		from := db.rels[fk.FromRelation]
		to := db.rels[fk.ToRelation]
		fi := from.Schema().ColumnIndex(fk.FromColumn)
		from.Scan(func(t Tuple) bool {
			if v := t.Values[fi]; !v.IsNull() && !to.holds(fk.ToColumn, v) {
				out = append(out, IntegrityViolation{ForeignKey: fk, TupleID: t.ID, Value: v})
			}
			return true
		})
	}
	return out
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
// distinct keys across all hash indexes and the bytes of the ids in their lists.
type Layout struct {
	Slots        int `json:"slots"`
	DeadSlots    int `json:"dead_slots"`
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
		for _, idx := range r.indexes {
			l.IndexEntries += idx.Cardinality()
			if h, ok := idx.(*HashIndex); ok {
				l.ListBytes += 4 * (h.ints.ids + h.vals.ids)
			}
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

// DropRelation removes a relation and every foreign key that references or
// departs from it.
func (db *Database) DropRelation(name string) error {
	if _, ok := db.rels[name]; !ok {
		return fmt.Errorf("storage: no relation %s", name)
	}
	db.catalogChanged()
	delete(db.rels, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	kept := db.fks[:0]
	for _, fk := range db.fks {
		if fk.FromRelation != name && fk.ToRelation != name {
			kept = append(kept, fk)
		}
	}
	db.fks = kept
	return nil
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
