package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"precis/internal/storage"
)

// TestIDAboveCapIsTypedNotCorruption: a snapshot, a delta or a log that is
// sound byte for byte but carries a tuple id above storage.MaxTupleID fails
// the decode or the open with storage.ErrOutOfIDs, attributed to its file
// and record — it is not reported as corruption, which it is not, and it is
// neither accepted nor truncated.
func TestIDAboveCapIsTypedNotCorruption(t *testing.T) {
	over := storage.MaxTupleID + 1
	borges := []storage.Value{storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true)}
	check := func(t *testing.T, err error, wantIn ...string) {
		t.Helper()
		var corrupt *CorruptionError
		if !errors.Is(err, storage.ErrOutOfIDs) || errors.As(err, &corrupt) {
			t.Fatalf("error = %v, want storage.ErrOutOfIDs and no CorruptionError", err)
		}
		for _, want := range wantIn {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	// initialized returns a store over testDB in a fresh directory.
	initialized := func(t *testing.T) (*Store, *storage.Database, string) {
		t.Helper()
		dir := t.TempDir()
		s, _, err := Open(dir, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		db := testDB(t)
		if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
			t.Fatal(err)
		}
		return s, db, dir
	}

	t.Run("snapshot", func(t *testing.T) {
		// The encoder cannot be given such a tuple, so one at MaxTupleID is
		// re-framed with the next id in its place: both take five bytes.
		db := testDB(t)
		if err := db.InsertWithID("AUTHOR", storage.MaxTupleID, borges...); err != nil {
			t.Fatal(err)
		}
		raw := mustEncode(&SnapshotData{DB: db})
		if _, err := DecodeSnapshot("", raw); err != nil {
			t.Fatalf("a tuple at MaxTupleID: %v", err)
		}
		at, above := binary.AppendUvarint(nil, uint64(storage.MaxTupleID)), binary.AppendUvarint(nil, uint64(over))
		patched, n := []byte(snapMagic), 0
		if _, err := scanFrames("", raw[len(snapMagic):], func(i int, _ int64, payload []byte) error {
			if i == 1 { // the first relation, AUTHOR (the header's watermark is one past MaxTupleID too)
				n = bytes.Count(payload, at)
				payload = bytes.Replace(payload, at, above, 1)
			}
			patched = mustFrame(patched, payload)
			return nil
		}); err != nil || n != 1 {
			t.Fatalf("re-framing: %v, %d occurrences of the id", err, n)
		}
		_, err := DecodeSnapshot("snap-1.snap", patched)
		check(t, err, "snap-1.snap", "record 1", "tuple 2")
	})

	t.Run("log", func(t *testing.T) {
		s, db, dir := initialized(t)
		if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: db.NextTupleID(), Values: borges}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: over, Values: borges}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, storeConfig())
		check(t, err, filepath.Join(dir, walName(1)), "record 1", "apply insert")
	})

	t.Run("delta", func(t *testing.T) {
		s, db, dir := initialized(t)
		h, err := s.BeginCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CompleteDelta(h, &DeltaData{
			NextTupleID: db.NextTupleID(),
			Relations:   []storage.DirtyRelation{{Name: "AUTHOR", Upserts: []storage.Upsert{{ID: over, Row: storage.MakeRow(borges...)}}}},
			FKs:         db.ForeignKeys(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, storeConfig())
		check(t, err, filepath.Join(dir, deltaName(2)), "delta insert AUTHOR/4294967296")
	})
}
