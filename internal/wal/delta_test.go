package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"precis/internal/storage"
)

// testDelta builds a representative delta: upserts of every value kind, a
// tombstone, and full extras.
func testDelta() *DeltaData {
	return &DeltaData{
		BaseGen:     3,
		NextTupleID: 42,
		Relations: []storage.DirtyRelation{
			{
				Name: "AUTHOR",
				Upserts: []storage.Upsert{
					{ID: 7, Row: storage.MakeRow(storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true))},
					{ID: 12, Row: storage.MakeRow(storage.Int(10), storage.Null, storage.Float(1.5), storage.Bool(false))},
				},
				Deletes: []storage.TupleID{3, 5},
			},
			{
				Name:    "BOOK",
				Deletes: []storage.TupleID{8},
			},
		},
		Synonyms: [][2]string{{"jlb", "Borges"}},
		Macros:   []string{`DEFINE M as "x."`},
		FKs:      []storage.ForeignKey{{FromRelation: "BOOK", FromColumn: "aid", ToRelation: "AUTHOR", ToColumn: "aid"}},
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := testDelta()
	raw, err := EncodeDelta(d)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	raw2, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("EncodeDelta is not deterministic")
	}
	got, err := DecodeDelta("test.dlt", raw)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	// Re-encoding the decoded value must reproduce the bytes exactly
	// (nil vs empty slices are not observable through the codec).
	re, err := EncodeDelta(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", d, got)
	}
}

// TestDeltaDecodeTruncation cuts the encoded delta at every byte offset:
// each cut must classify as incomplete (a torn write), never decode as a
// shorter valid delta and never panic.
func TestDeltaDecodeTruncation(t *testing.T) {
	raw, err := EncodeDelta(testDelta())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		_, err := DecodeDelta("cut.dlt", raw[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Every truncation that preserves whole frames must be IsIncomplete —
	// the torn-tail classification chain recovery relies on.
	if _, err := DecodeDelta("cut.dlt", raw[:len(raw)-1]); !IsIncomplete(err) {
		t.Fatalf("one-byte truncation is not incomplete: %v", err)
	}
	if _, err := DecodeDelta("cut.dlt", raw[:3]); !IsIncomplete(err) {
		t.Fatalf("mid-magic truncation is not incomplete: %v", err)
	}
}

// TestDeltaDecodeBitFlips flips one bit in every byte: the CRC framing must
// reject each variant.
func TestDeltaDecodeBitFlips(t *testing.T) {
	raw, err := EncodeDelta(testDelta())
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		if _, err := DecodeDelta("flip.dlt", mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", off)
		}
	}
}

// TestApplyDeltaMatchesReplay: applying a delta captured from a mutated
// database must land tuples at the same positions direct mutation did, with
// the same values, including the tombstone-for-unseen-id no-op, a primary key
// deleted and inserted again under a new id, and keys that moved within the
// interval in a way no one-at-a-time replay of the final rows can apply: a
// cycle (A:3→x, B:7→3, A:x→7), and a swap whose higher id moved first.
func TestApplyDeltaMatchesReplay(t *testing.T) {
	// Base state, snapshotted before mutation.
	base := testDB(t)
	baseRaw := mustEncode(&SnapshotData{DB: base})

	// Live copy: enable tracking, mutate.
	live, err := DecodeSnapshot("base.snap", baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	live.DB.EnableDirtyTracking()
	newID, err := live.DB.Insert("AUTHOR", storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true))
	if err != nil {
		t.Fatal(err)
	}
	var firstBook storage.TupleID
	live.DB.Relation("BOOK").Scan(func(tp storage.Tuple) bool { firstBook = tp.ID; return false })
	if _, err := live.DB.Delete("BOOK", firstBook); err != nil {
		t.Fatal(err)
	}
	// Insert-then-delete within the interval: must become a no-op tombstone.
	tmp, err := live.DB.Insert("AUTHOR", storage.Int(99), storage.String("Ghost"), storage.Float(0), storage.Bool(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.DB.Delete("AUTHOR", tmp); err != nil {
		t.Fatal(err)
	}
	// A key moved to a new id: its tombstone must apply before the insert.
	var moved storage.Tuple
	live.DB.Relation("AUTHOR").Scan(func(tp storage.Tuple) bool { moved = tp; return false })
	if _, err := live.DB.Delete("AUTHOR", moved.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := live.DB.Insert("AUTHOR", moved.Values...); err != nil {
		t.Fatal(err)
	}
	setKey := func(rel string, id storage.TupleID, key storage.Value) {
		t.Helper()
		tp, _ := live.DB.Relation(rel).Get(id)
		tp.Values[0] = key
		if err := live.DB.Update(rel, id, tp.Values); err != nil {
			t.Fatal(err)
		}
	}
	// The cycle, on BOOK's tuples 4 (bid 11) and 5 (bid 12).
	setKey("BOOK", 4, storage.Int(777))
	setKey("BOOK", 5, storage.Int(11))
	setKey("BOOK", 4, storage.Int(12))
	// The swap, on AUTHOR's tuple 2 (aid 2) and Borges (aid 9, a higher id).
	setKey("AUTHOR", newID, storage.Int(778))
	setKey("AUTHOR", 2, storage.Int(9))
	setKey("AUTHOR", newID, storage.Int(2))
	ds := live.DB.CaptureDirty()
	if ds == nil {
		t.Fatal("CaptureDirty returned nil with tracking enabled")
	}
	d := &DeltaData{
		NextTupleID: live.DB.NextTupleID(),
		Relations:   ds.Relations,
		FKs:         live.DB.ForeignKeys(),
	}
	raw, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDelta("d.dlt", raw)
	if err != nil {
		t.Fatal(err)
	}

	// Apply to a fresh decode of the base and compare scan orders.
	target, err := DecodeSnapshot("base.snap", baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(target, d2, nil); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if target.DB.NextTupleID() != live.DB.NextTupleID() {
		t.Fatalf("NextTupleID %d, want %d", target.DB.NextTupleID(), live.DB.NextTupleID())
	}
	for _, rel := range []string{"AUTHOR", "BOOK"} {
		var want, got []storage.TupleID
		live.DB.Relation(rel).Scan(func(tp storage.Tuple) bool { want = append(want, tp.ID); return true })
		target.DB.Relation(rel).Scan(func(tp storage.Tuple) bool { got = append(got, tp.ID); return true })
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s scan order: want %v, got %v", rel, want, got)
		}
	}
	if got, want := dumpState(target), dumpState(live); got != want {
		t.Fatalf("applied delta differs from the live database:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if _, ok := target.DB.Relation("AUTHOR").Get(newID); !ok {
		t.Fatal("inserted author missing after delta apply")
	}
	if _, ok := target.DB.Relation("AUTHOR").Get(tmp); ok {
		t.Fatal("insert-then-delete tuple resurrected by delta apply")
	}
}

// TestStoreDeltaChainRecovery drives the store's two-phase protocol
// directly: deltas stack into a chain, a reopen reconstructs the exact
// state.
func TestStoreDeltaChainRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	data := &SnapshotData{DB: db}

	checkpointDelta := func() {
		t.Helper()
		h, err := s.BeginCheckpoint()
		if err != nil {
			t.Fatalf("BeginCheckpoint: %v", err)
		}
		ds := db.CaptureDirty()
		if err := s.CompleteDelta(h, &DeltaData{
			NextTupleID: db.NextTupleID(),
			Relations:   ds.Relations,
			FKs:         db.ForeignKeys(),
			Synonyms:    data.Synonyms,
			Macros:      data.Macros,
		}); err != nil {
			t.Fatalf("CompleteDelta: %v", err)
		}
	}
	logInsert := func(vals ...storage.Value) {
		t.Helper()
		id := db.NextTupleID()
		if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: id, Values: vals}); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertWithID("AUTHOR", id, vals...); err != nil {
			t.Fatal(err)
		}
	}

	logInsert(storage.Int(100), storage.String("Eco"), storage.Float(4.5), storage.Bool(true))
	checkpointDelta()
	logInsert(storage.Int(101), storage.String("Calvino"), storage.Float(4.8), storage.Bool(false))
	checkpointDelta()
	logInsert(storage.Int(102), storage.String("Levi"), storage.Float(4.2), storage.Bool(true))
	// The last insert stays in the WAL tail only.

	wantChain := s.Chain()
	if len(wantChain) != 3 {
		t.Fatalf("chain %v, want base + 2 deltas", wantChain)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() (*Store, *Recovered) {
		t.Helper()
		s2, rec, err := Open(dir, storeConfig())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return s2, rec
	}
	s2, rec := reopen()
	if rec.ChainDepth != 3 || rec.DeltasApplied != 2 {
		t.Fatalf("recovered chain depth %d / %d deltas, want 3 / 2", rec.ChainDepth, rec.DeltasApplied)
	}
	names := map[string]bool{}
	rec.Data.DB.Relation("AUTHOR").Scan(func(tp storage.Tuple) bool {
		names[tp.Values[1].AsString()] = true
		return true
	})
	for _, want := range []string{"Eco", "Calvino", "Levi"} {
		if !names[want] {
			t.Fatalf("recovered authors %v missing %s", names, want)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIncompleteTipDeltaDropped: a torn tip delta whose content the
// retained logs still cover (the crash interrupted the checkpoint writing
// it, so GC never ran) is dropped and recovery proceeds from the logs.
func TestStoreIncompleteTipDeltaDropped(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	id := db.NextTupleID()
	vals := []storage.Value{storage.Int(100), storage.String("Eco"), storage.Float(4.5), storage.Bool(true)}
	if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: id, Values: vals}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertWithID("AUTHOR", id, vals...); err != nil {
		t.Fatal(err)
	}
	// Begin a checkpoint (rotates to gen 2, wal-1 retained) and "crash"
	// while writing the delta: a truncated delta-2 lands on disk.
	h, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ds := db.CaptureDirty()
	full, err := EncodeDelta(&DeltaData{BaseGen: 1, NextTupleID: db.NextTupleID(), Relations: ds.Relations, FKs: db.ForeignKeys()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, deltaName(h.Gen())), full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	h.Abort()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("recovery with droppable torn tip delta failed: %v", err)
	}
	if rec.DeltasApplied != 0 {
		t.Fatalf("torn delta was applied (%d deltas)", rec.DeltasApplied)
	}
	if _, ok := rec.Data.DB.Relation("AUTHOR").Get(id); !ok {
		t.Fatal("log-covered insert missing after dropping torn delta")
	}
	if exists(filepath.Join(dir, deltaName(2))) {
		t.Fatal("torn tip delta not removed")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIncompleteTipDeltaNotCovered: the same torn tip delta becomes a
// hard CorruptionError when the logs that covered it are gone — dropping it
// would silently lose committed data.
func TestStoreIncompleteTipDeltaNotCovered(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	id := db.NextTupleID()
	vals := []storage.Value{storage.Int(100), storage.String("Eco"), storage.Float(4.5), storage.Bool(true)}
	if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: id, Values: vals}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertWithID("AUTHOR", id, vals...); err != nil {
		t.Fatal(err)
	}
	h, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ds := db.CaptureDirty()
	if err := s.CompleteDelta(h, &DeltaData{NextTupleID: db.NextTupleID(), Relations: ds.Relations, FKs: db.ForeignKeys()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// GC removed wal-1; now truncate the completed delta.
	if exists(filepath.Join(dir, walName(1))) {
		t.Fatal("wal-1 survived the completed delta checkpoint")
	}
	path := filepath.Join(dir, deltaName(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, storeConfig())
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("uncovered torn delta: error %v, want CorruptionError", err)
	}
}

// FuzzDeltaDecode feeds adversarial bytes to the delta decoder: it must
// never panic and never allocate beyond what the input justifies; valid
// inputs must survive a re-encode round trip.
func FuzzDeltaDecode(f *testing.F) {
	seed, err := EncodeDelta(testDelta())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                                                        // truncation
	f.Add([]byte(deltaMagic))                                                        // magic only
	f.Add([]byte("PRCDLT2junk"))                                                     // wrong magic
	f.Add(mustFrame([]byte(deltaMagic), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01})) // absurd uvarint header
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut) // flipped bit
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		d, err := DecodeDelta("", raw)
		if err != nil {
			return
		}
		re, err := EncodeDelta(d)
		if err != nil {
			t.Fatalf("re-encoding a decoded delta failed: %v", err)
		}
		if _, err := DecodeDelta("", re); err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
	})
}
