package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"precis/internal/storage"
)

// Delta snapshot file format ("PRCDLT1"): an incremental checkpoint that
// records only what changed since its base — dirty tuples (inserted or
// updated), tombstones (deleted ids), and the engine extras (synonyms,
// macros, foreign keys), which are carried wholesale every time because
// they are tiny and carrying them removes any need to dirty-track them.
// The layout mirrors the full snapshot: magic, header frame, one frame per
// changed relation, a foreign-key frame, an extras frame, and a trailer
// authenticating the total change count. Torn and corrupt deltas get the
// exact same incomplete-vs-CorruptionError classification as snapshots.
const (
	deltaMagic   = "PRCDLT1"
	deltaVersion = 1
	deltaTrailer = "precis-delta-end"
)

// DeltaData is one delta checkpoint's content: the generation it applies
// on top of, the post-checkpoint id watermark, the per-relation changes,
// and the full engine extras at checkpoint time.
type DeltaData struct {
	// BaseGen is the chain element this delta extends: the full snapshot's
	// generation, or the previous delta's generation.
	BaseGen     uint64
	NextTupleID storage.TupleID
	Relations   []storage.DirtyRelation
	Synonyms    [][2]string
	Macros      []string
	FKs         []storage.ForeignKey
}

// Changes returns the total number of upserts and tombstones in the delta.
func (d *DeltaData) Changes() int {
	n := 0
	for _, r := range d.Relations {
		n += len(r.Upserts) + len(r.Deletes)
	}
	return n
}

// RecoveryObserver watches recovery reconstruct the database, letting the
// engine maintain a persisted inverted index through delta application and
// WAL replay instead of rebuilding it from scratch. RecoveryBase fires
// once, right after the base snapshot decodes; RecoveryApply fires for
// every tuple-level change after that (old == nil for an insert, new ==
// nil for a delete, both set for an update). Synonym/macro/foreign-key
// changes are not reported — the engine re-applies those from the
// recovered SnapshotData itself.
type RecoveryObserver interface {
	RecoveryBase(baseGen uint64, db *storage.Database)
	RecoveryApply(rel string, old, new *storage.Tuple)
}

// EncodeDelta renders d as delta bytes, into one buffer made at their size
// (sized). Like EncodeSnapshot, identical inputs produce identical bytes,
// and any section exceeding the frame payload limit is refused before it can
// reach disk.
func EncodeDelta(d *DeltaData) ([]byte, error) {
	return sized(func(e *enc) error {
		e.put(deltaMagic)
		at := e.open()
		e.uvarint(deltaVersion)
		e.uvarint(d.BaseGen)
		e.uvarint(uint64(d.NextTupleID))
		e.uvarint(uint64(len(d.Relations)))
		if err := e.close(at); err != nil {
			return fmt.Errorf("wal: delta header: %w", err)
		}
		for _, r := range d.Relations {
			at := e.open()
			e.str(r.Name)
			e.uvarint(uint64(len(r.Upserts)))
			for _, u := range r.Upserts {
				e.uvarint(uint64(u.ID))
				e.row(u.Row)
			}
			e.uvarint(uint64(len(r.Deletes)))
			for _, id := range r.Deletes {
				e.uvarint(uint64(id))
			}
			if err := e.close(at); err != nil {
				return fmt.Errorf("wal: delta relation %s: %w", r.Name, err)
			}
		}
		if err := e.tail(d.FKs, d.Synonyms, d.Macros, deltaTrailer, d.Changes()); err != nil {
			return fmt.Errorf("wal: delta %w", err)
		}
		return nil
	})
}

// DecodeDelta parses delta bytes. Classification matches DecodeSnapshot:
// checksum mismatch anywhere — or upserts or tombstones of a relation not
// strictly ascending by id, which no encoder writes — is a *CorruptionError;
// a stream that stops cleanly before its trailer satisfies IsIncomplete. The
// decoder never panics and never allocates more than the input justifies.
func DecodeDelta(file string, raw []byte) (*DeltaData, error) {
	d := &DeltaData{}
	x, err := readSections(file, raw, deltaFormat, func(dd *dec) (uint64, *storage.Database, error) {
		ver, err := dd.uvarint()
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		if ver != deltaVersion {
			return 0, nil, fmt.Errorf("unsupported delta version %d", ver)
		}
		if d.BaseGen, err = dd.uvarint(); err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		next, err := dd.uvarint()
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		d.NextTupleID = storage.TupleID(next)
		n, err := dd.uvarint()
		if err != nil {
			return 0, nil, fmt.Errorf("header: %w", err)
		}
		return n, nil, nil
	}, func(i int, dd *dec) (int, error) {
		var r storage.DirtyRelation
		var err error
		if r.Name, err = dd.str(); err != nil {
			return 0, fmt.Errorf("relation section %d: %w", i, err)
		}
		nUp, err := dd.count(2)
		if err != nil {
			return 0, fmt.Errorf("relation %s upserts: %w", r.Name, err)
		}
		r.Upserts = make([]storage.Upsert, 0, nUp)
		dd.borrow = true // MakeRow copies the values out of the payload
		var vals []storage.Value
		for j := 0; j < nUp; j++ {
			id, err := dd.uvarint()
			if err != nil {
				return 0, fmt.Errorf("relation %s upsert %d: %w", r.Name, j, err)
			}
			if j > 0 && storage.TupleID(id) <= r.Upserts[j-1].ID {
				return 0, fmt.Errorf("relation %s upsert %d: id %d after %d", r.Name, j, id, r.Upserts[j-1].ID)
			}
			vals, err = dd.values(vals[:0])
			if err != nil {
				return 0, fmt.Errorf("relation %s upsert %d: %w", r.Name, j, err)
			}
			r.Upserts = append(r.Upserts, storage.Upsert{ID: storage.TupleID(id), Row: storage.MakeRow(vals...)})
		}
		nDel, err := dd.count(1)
		if err != nil {
			return 0, fmt.Errorf("relation %s deletes: %w", r.Name, err)
		}
		r.Deletes = make([]storage.TupleID, 0, nDel)
		for j := 0; j < nDel; j++ {
			id, err := dd.uvarint()
			if err != nil {
				return 0, fmt.Errorf("relation %s delete %d: %w", r.Name, j, err)
			}
			if j > 0 && storage.TupleID(id) <= r.Deletes[j-1] {
				return 0, fmt.Errorf("relation %s delete %d: id %d after %d", r.Name, j, id, r.Deletes[j-1])
			}
			r.Deletes = append(r.Deletes, storage.TupleID(id))
		}
		d.Relations = append(d.Relations, r)
		return len(r.Upserts) + len(r.Deletes), nil
	})
	if err != nil {
		return nil, err
	}
	d.FKs, d.Synonyms, d.Macros = x.fks, x.synonyms, x.macros
	return d, nil
}

// ApplyDelta applies d on top of data, in the same deterministic order the
// checkpoint captured it: relations in creation order, tombstones, then the
// upserts as one set (storage.Database.Upsert). Tombstones go first: a primary
// key a deleted tuple held may since have been taken by a tuple inserted under
// a new id. The upserts go as a set because a delta holds only each tuple's
// final row: within one interval keys may have moved round a cycle (A:3→x,
// B:7→3, A:x→7), which no one-at-a-time order can replay, so every key the
// upserts release is released before any is placed. An updated tuple keeps
// its position and a new one lands after the relation's last, ascending by id;
// because tuple ids are globally monotone and never reused, that is the scan
// position WAL replay would have given it — delta recovery stays
// byte-identical to log replay. Extras replace the base's wholesale. obs (may
// be nil) sees every tuple-level change.
func ApplyDelta(data *SnapshotData, d *DeltaData, obs RecoveryObserver) error {
	db := data.DB
	for _, r := range d.Relations {
		rel := db.Relation(r.Name)
		if rel == nil {
			return fmt.Errorf("wal: delta references unknown relation %s", r.Name)
		}
		for _, id := range r.Deletes {
			// A tombstone for an id the base never saw (inserted and deleted
			// within one checkpoint interval) is a no-op.
			old, ok := rel.Get(id)
			if !ok {
				continue
			}
			if _, err := db.Delete(r.Name, id); err != nil {
				return fmt.Errorf("wal: delta delete %s/%d: %w", r.Name, id, err)
			}
			if obs != nil {
				obs.RecoveryApply(r.Name, &old, nil)
			}
		}
		var olds []storage.Tuple
		if obs != nil {
			olds = make([]storage.Tuple, len(r.Upserts))
			for i, u := range r.Upserts {
				olds[i], _ = rel.Get(u.ID)
			}
		}
		if at, err := db.Upsert(r.Name, r.Upserts); err != nil {
			op := "insert"
			if rel.Has(r.Upserts[at].ID) {
				op = "update"
			}
			return fmt.Errorf("wal: delta %s %s/%d: %w", op, r.Name, r.Upserts[at].ID, err)
		}
		for i, old := range olds {
			var was *storage.Tuple
			if old.ID != 0 {
				was = &olds[i]
			}
			u := r.Upserts[i]
			obs.RecoveryApply(r.Name, was, &storage.Tuple{ID: u.ID, Values: u.Row.Values()})
		}
	}
	db.SetNextTupleID(d.NextTupleID)
	db.SetForeignKeys(nil)
	for _, fk := range d.FKs {
		if err := db.AddForeignKey(fk); err != nil {
			return fmt.Errorf("wal: delta foreign key: %w", err)
		}
	}
	data.Synonyms = append([][2]string(nil), d.Synonyms...)
	data.synIdx = nil
	data.Macros = append([]string(nil), d.Macros...)
	data.macroSet = nil
	return nil
}

// applyObserved applies one WAL record to data, reporting tuple-level
// changes to obs so a loaded index stays current through log replay. With
// a nil observer it is exactly Record.apply.
func applyObserved(r Record, data *SnapshotData, obs RecoveryObserver) error {
	if obs == nil {
		return r.apply(data)
	}
	switch r.Op {
	case OpInsert:
		if err := r.apply(data); err != nil {
			return err
		}
		nt := storage.Tuple{ID: r.ID, Values: r.Values}
		obs.RecoveryApply(r.Rel, nil, &nt)
		return nil
	case OpUpdate, OpDelete:
		var oldp *storage.Tuple
		if rel := data.DB.Relation(r.Rel); rel != nil {
			if old, ok := rel.Get(r.ID); ok {
				oldp = &old
			}
		}
		if err := r.apply(data); err != nil {
			return err
		}
		if r.Op == OpUpdate {
			nt := storage.Tuple{ID: r.ID, Values: r.Values}
			obs.RecoveryApply(r.Rel, oldp, &nt)
		} else if oldp != nil {
			obs.RecoveryApply(r.Rel, oldp, nil)
		}
		return nil
	default:
		return r.apply(data)
	}
}

// WriteDelta durably writes d as the delta for generation gen: temp file,
// fsync, rename, directory fsync — the same atomicity as snapshots.
func WriteDelta(dir string, gen uint64, d *DeltaData) (string, int64, error) {
	raw, err := EncodeDelta(d)
	if err != nil {
		return "", 0, err
	}
	path, err := writeRawFile(dir, deltaName(gen), raw)
	return path, int64(len(raw)), err
}

// writeRawFile durably writes raw to dir/name via the snapshot temp-file
// protocol (same ".tmp-snap-*" prefix, so stale temps from any file kind
// are swept by the one cleanup pass in Open).
func writeRawFile(dir, name string, raw []byte) (string, error) {
	final := filepath.Join(dir, name)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(raw); err != nil {
		cleanup()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", err
	}
	if err := os.Rename(tmpName, final); err != nil {
		_ = os.Remove(tmpName)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

func deltaName(gen uint64) string { return fmt.Sprintf("delta-%016x.dlt", gen) }

// IndexSnapshotName is the file the persisted inverted index for the full
// snapshot at gen lives in, exported for the engine layer that owns the
// index codec.
func IndexSnapshotName(gen uint64) string { return fmt.Sprintf("index-%016x.pidx", gen) }
