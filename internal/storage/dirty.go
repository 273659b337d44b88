package storage

import "sort"

// Dirty tracking: the persistence layer's incremental checkpoints need to
// know which tuples changed since the last checkpoint without scanning the
// database. When enabled (persistent engines only — in-memory engines pay
// exactly one nil check per mutation), every Insert/InsertWithID/Update
// marks its tuple dirty and every Delete leaves a tombstone; CaptureDirty
// resolves the marked ids to their rows — records are never written, so a row
// is a copy-on-write reference — and resets the set in O(dirty), which is the
// entire pause a delta checkpoint imposes on the mutation lock.

// dirtyTracker records a mutation counter plus the dirty-tuple and tombstone
// sets accumulated since the last successful capture.
type dirtyTracker struct {
	muts  uint64
	dirty map[string]map[TupleID]bool // live tuples inserted/updated
	dead  map[string]map[TupleID]bool // tuples deleted
}

func newDirtyTracker() *dirtyTracker {
	return &dirtyTracker{
		dirty: make(map[string]map[TupleID]bool),
		dead:  make(map[string]map[TupleID]bool),
	}
}

// mark records a live mutation (insert or update) of (rel, id). A
// tombstone for the same id is cleared: the id is live again.
func (t *dirtyTracker) mark(rel string, id TupleID) {
	if t == nil {
		return
	}
	t.muts++
	if d := t.dead[rel]; d != nil {
		delete(d, id)
	}
	m := t.dirty[rel]
	if m == nil {
		m = make(map[TupleID]bool)
		t.dirty[rel] = m
	}
	m[id] = true
}

// markDeleted records a deletion of (rel, id), superseding any dirty mark.
func (t *dirtyTracker) markDeleted(rel string, id TupleID) {
	if t == nil {
		return
	}
	t.muts++
	if m := t.dirty[rel]; m != nil {
		delete(m, id)
	}
	d := t.dead[rel]
	if d == nil {
		d = make(map[TupleID]bool)
		t.dead[rel] = d
	}
	d[id] = true
}

// DirtyRelation is one relation's changes since the last capture: upserts
// (inserted or updated live tuples, ascending by id) and tombstones
// (deleted ids, ascending).
type DirtyRelation struct {
	Name    string
	Upserts []Upsert
	Deletes []TupleID
}

// Upsert is one inserted or updated tuple: its id and its row.
type Upsert struct {
	ID  TupleID
	Row Row
}

// DirtySet is everything CaptureDirty found: per-relation changes in
// relation-creation order plus the total mutation count they represent.
type DirtySet struct {
	Relations []DirtyRelation
	Mutations uint64
}

// Tuples returns the total number of upserts and tombstones captured.
func (ds *DirtySet) Tuples() int {
	if ds == nil {
		return 0
	}
	n := 0
	for _, r := range ds.Relations {
		n += len(r.Upserts) + len(r.Deletes)
	}
	return n
}

// EnableDirtyTracking turns dirty tracking on (idempotent). The tracking
// set starts empty: everything already in the database is considered
// clean, so callers enable tracking exactly at a checkpoint boundary (the
// persistence layer does so right after applying the snapshot chain,
// before replaying the WAL tail).
func (db *Database) EnableDirtyTracking() {
	if db.tracker == nil {
		db.tracker = newDirtyTracker()
	}
}

// CaptureDirty atomically resolves and resets the dirty set, returning the
// changed tuples since the previous capture. Upsert entries borrow the stored
// rows — Insert and Update both make new records and never write one, so the
// captured view stays stable while later mutations proceed (copy-on-write by
// construction).
// Returns nil when tracking is disabled. Callers must hold whatever lock
// serializes mutations (the engine mutation lock).
func (db *Database) CaptureDirty() *DirtySet {
	t := db.tracker
	if t == nil {
		return nil
	}
	ds := &DirtySet{Mutations: t.muts}
	for _, name := range db.order {
		dirty, dead := t.dirty[name], t.dead[name]
		if len(dirty) == 0 && len(dead) == 0 {
			continue
		}
		rel := db.rels[name]
		dr := DirtyRelation{Name: name}
		if len(dirty) > 0 {
			ids := make([]TupleID, 0, len(dirty))
			for id := range dirty {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			dr.Upserts = make([]Upsert, 0, len(ids))
			for _, id := range ids {
				if row, ok := rel.Row(id); ok {
					dr.Upserts = append(dr.Upserts, Upsert{id, row})
				}
			}
		}
		if len(dead) > 0 {
			dr.Deletes = make([]TupleID, 0, len(dead))
			for id := range dead {
				dr.Deletes = append(dr.Deletes, id)
			}
			sort.Slice(dr.Deletes, func(i, j int) bool { return dr.Deletes[i] < dr.Deletes[j] })
		}
		ds.Relations = append(ds.Relations, dr)
	}
	db.tracker = newDirtyTracker()
	return ds
}

// MergeDirty folds a previously captured set back into the live tracker —
// the recovery path for a checkpoint whose off-lock completion failed, so
// the next checkpoint's delta still covers those tuples. Ids are re-marked
// by their current liveness, which also absorbs any mutations recorded
// since the failed capture. Callers hold the mutation lock.
func (db *Database) MergeDirty(ds *DirtySet) {
	if ds == nil {
		return
	}
	db.EnableDirtyTracking()
	t := db.tracker
	remark := func(rel string, id TupleID) {
		if r := db.rels[rel]; r != nil {
			if r.Has(id) {
				t.mark(rel, id)
				t.muts-- // mark() counts a mutation; a re-mark is not one
				return
			}
		}
		t.markDeleted(rel, id)
		t.muts--
	}
	for _, dr := range ds.Relations {
		for _, tu := range dr.Upserts {
			remark(dr.Name, tu.ID)
		}
		for _, id := range dr.Deletes {
			remark(dr.Name, id)
		}
	}
	t.muts += ds.Mutations
}
