package spec

// This file states the write path: what Insert, Update and Delete do to a
// database, and which writes they refuse, with the typed storage error the
// engine refuses them with. A relation is a map from tuple id to values, and
// every refusal is a property of the state the write would leave:
//   - a row of the wrong arity, or with a NULL key, does not fit (ErrInvalid);
//   - no two tuples of a relation hold one key (storage.ErrDuplicateKey);
//   - every non-NULL foreign-key value of the written tuple is held in the
//     column it references (storage.ErrDangling);
//   - every reference of another tuple that was held before is held after
//     (storage.ErrReferenced).
//
// They are checked in that order, and a refused write changes nothing. A
// written value is stored as its column's type keeps it, and a row with a
// value the column cannot keep does not fit (stored, values.go); a key or a
// reference is looked up as a join looks a value up (key).

import (
	"errors"
	"slices"

	"precis/internal/storage"
)

// ErrInvalid refuses a row that does not fit its relation, and a write to a
// relation the store does not have.
var ErrInvalid = errors.New("spec: row does not fit its relation")

// Relation is a relation of a Store: its columns and their declared types,
// its primary key ("" without one) and its tuples by id.
type Relation struct {
	Key     string
	Columns []string
	Types   []storage.ColType
	Tuples  map[int64][]storage.Value
}

// Store is a database the writes change.
type Store struct {
	Relations   map[string]*Relation
	ForeignKeys []storage.ForeignKey
	NextID      int64 // the id the next insert takes
}

// StoreOf restates a stored database as a Store.
func StoreOf(db *storage.Database) *Store {
	s := &Store{Relations: map[string]*Relation{}, ForeignKeys: db.ForeignKeys(), NextID: int64(db.NextTupleID())}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		r := &Relation{Key: rel.Schema().Key, Columns: rel.Schema().ColumnNames(), Types: types(rel.Schema()),
			Tuples: map[int64][]storage.Value{}}
		for _, tu := range rel.Tuples() {
			r.Tuples[int64(tu.ID)] = tu.Values
		}
		s.Relations[name] = r
	}
	return s
}

// Insert adds a tuple under the next id and returns the id.
func (s *Store) Insert(rel string, vals []storage.Value) (int64, error) {
	if err := s.write(rel, s.NextID, vals); err != nil {
		return 0, err
	}
	s.NextID++
	return s.NextID - 1, nil
}

// Update gives tuple id of rel the values vals.
func (s *Store) Update(rel string, id int64, vals []storage.Value) error {
	if r := s.Relations[rel]; r == nil || r.Tuples[id] == nil {
		return storage.ErrNoTuple
	}
	return s.write(rel, id, vals)
}

// Delete removes tuple id of rel. It reports false, with no error, when rel
// holds no such tuple.
func (s *Store) Delete(rel string, id int64) (bool, error) {
	if r := s.Relations[rel]; r == nil || r.Tuples[id] == nil {
		return false, nil
	}
	err := s.write(rel, id, nil)
	return err == nil, err
}

// write makes vals tuple id of rel, or deletes it when vals is nil, unless
// the state that leaves breaks a rule of the file comment.
func (s *Store) write(rel string, id int64, vals []storage.Value) error {
	r := s.Relations[rel]
	if r == nil {
		return ErrInvalid
	}
	if vals != nil {
		if len(vals) != len(r.Columns) {
			return ErrInvalid
		}
		vals = slices.Clone(vals)
		for i, v := range vals {
			var fits bool
			if vals[i], fits = stored(r.Types[i], v); !fits {
				return ErrInvalid
			}
		}
		if k := slices.Index(r.Columns, r.Key); k >= 0 {
			if vals[k].IsNull() {
				return ErrInvalid
			}
			for other, o := range r.Tuples {
				if other != id && o[k] == vals[k] {
					return storage.ErrDuplicateKey
				}
			}
		}
	}
	before := s.dangling()
	old, had := r.Tuples[id]
	if vals == nil {
		delete(r.Tuples, id)
	} else {
		r.Tuples[id] = vals
	}
	err := error(nil)
	for ref := range s.dangling() {
		if ref.rel == rel && ref.id == id {
			err = storage.ErrDangling
			break
		}
		if !before[ref] {
			err = storage.ErrReferenced
		}
	}
	if err != nil {
		if had {
			r.Tuples[id] = old
		} else {
			delete(r.Tuples, id)
		}
	}
	return err
}

// reference is foreign key fk of tuple id of relation rel.
type reference struct {
	rel string
	id  int64
	fk  int
}

// dangling returns the references whose non-NULL value no tuple of the
// referenced relation holds in the referenced column.
func (s *Store) dangling() map[reference]bool {
	out := map[reference]bool{}
	for i, fk := range s.ForeignKeys {
		from, to := s.Relations[fk.FromRelation], s.Relations[fk.ToRelation]
		fc, tc := slices.Index(from.Columns, fk.FromColumn), slices.Index(to.Columns, fk.ToColumn)
		for id, vals := range from.Tuples {
			if v := vals[fc]; !v.IsNull() && !holds(to, tc, v) {
				out[reference{fk.FromRelation, id, i}] = true
			}
		}
	}
	return out
}

// holds reports whether a tuple of r holds v in column c.
func holds(r *Relation, c int, v storage.Value) bool {
	k, ok := key(r.Types[c], v)
	for _, vals := range r.Tuples {
		if ok && vals[c] == k {
			return true
		}
	}
	return false
}
