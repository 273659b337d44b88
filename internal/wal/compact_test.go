package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/storage"
)

// oldCompaction is the path the merge replaced, kept as its oracle: decode
// the base into a database, apply every delta, encode the state.
func oldCompaction(base []byte, deltas ...*DeltaData) ([]byte, error) {
	data, err := DecodeSnapshot("", base)
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if err := ApplyDelta(data, d, nil); err != nil {
			return nil, err
		}
	}
	return EncodeSnapshot(data)
}

// mergeDeltas folds deltas and merges them into base, as generation 1.
func mergeDeltas(base []byte, obs RecoveryObserver, deltas ...*DeltaData) ([]byte, error) {
	f := newFold()
	for _, d := range deltas {
		f.delta(d)
	}
	return merge("", base, f, 1, obs)
}

// indexDeriver carries a persisted index of the base forward over the
// tuples a merge changed, as the engine does with the base generation's
// index file.
type indexDeriver struct {
	raw []byte
	ix  *invidx.Index
	err error
}

func (o *indexDeriver) RecoveryBase(_ uint64, db *storage.Database) {
	o.ix, _, o.err = invidx.DecodeSnapshot(o.raw, db)
}

func (o *indexDeriver) RecoveryApply(rel string, old, new *storage.Tuple) {
	if old != nil {
		o.ix.RemoveTuple(rel, *old)
	}
	if new != nil {
		o.ix.AddTuple(rel, *new)
	}
}

// errClass is what FuzzCompact and the refusal tests compare of two errors.
func errClass(err error) string {
	var corrupt *CorruptionError
	switch {
	case err == nil:
		return "ok"
	case IsIncomplete(err):
		return "incomplete"
	case errors.As(err, &corrupt):
		return "corruption"
	case errors.Is(err, storage.ErrOutOfIDs):
		return "out of ids"
	}
	return "refused"
}

// onDisk is d as a chain delta is read back: encoded, then decoded.
func onDisk(t testing.TB, d *DeltaData) *DeltaData {
	t.Helper()
	raw, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDelta("", raw)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// chainGen writes a seeded mutation history into a live database with dirty
// tracking on, one checkpoint interval at a time: inserts; updates of key,
// join and other columns; keys moved round a cycle between two tuples;
// deletes; a key deleted and inserted again under a new id; a tuple
// inserted and deleted within one interval (a tombstone for an id no base
// holds); synonyms and macros.
type chainGen struct {
	t     testing.TB
	r     *rand.Rand
	data  *SnapshotData
	fresh int64 // the next key no tuple has held
}

func newChainGen(t testing.TB, seed int64, data *SnapshotData) *chainGen {
	data.DB.EnableDirtyTracking()
	return &chainGen{t: t, r: rand.New(rand.NewSource(seed)), data: data, fresh: 1 << 20}
}

func (g *chainGen) value(col storage.Column) storage.Value {
	if g.r.Intn(6) == 0 {
		return storage.Null
	}
	k := g.r.Intn(50)
	switch col.Type {
	case storage.TypeInt:
		return storage.Int(int64(k))
	case storage.TypeFloat:
		return []storage.Value{storage.Int(int64(k)), storage.Float(float64(k) + 0.5), storage.Float(math.NaN()),
			storage.Float(math.Copysign(0, -1)), storage.Float(math.Inf(1))}[k%5]
	case storage.TypeString:
		return storage.String([]string{fmt.Sprintf("word%d token", k), "", "café ☕", "\xffbad\xfe", "Woody Allen"}[k%5])
	}
	return storage.Bool(k%2 == 0)
}

func (g *chainGen) row(sc *storage.Schema) []storage.Value {
	vals := make([]storage.Value, len(sc.Columns))
	for i, c := range sc.Columns {
		if c.Name == sc.Key {
			vals[i] = storage.Int(g.fresh)
			g.fresh++
		} else {
			vals[i] = g.value(c)
		}
	}
	return vals
}

// pick returns a live tuple of rel other than not.
func (g *chainGen) pick(rel *storage.Relation, not storage.TupleID) (storage.Tuple, bool) {
	var ids []storage.TupleID
	rel.ScanRows(func(id storage.TupleID, _ storage.Row) bool {
		if id != not {
			ids = append(ids, id)
		}
		return true
	})
	if len(ids) == 0 {
		return storage.Tuple{}, false
	}
	tp, _ := rel.Get(ids[g.r.Intn(len(ids))])
	return tp, true
}

// interval runs steps mutations.
func (g *chainGen) interval(steps int) {
	db := g.data.DB
	names := db.RelationNames()
	must := func(err error) {
		g.t.Helper()
		if err != nil {
			g.t.Fatal(err)
		}
	}
	setKey := func(rel string, tp storage.Tuple, key int, v storage.Value) {
		tp.Values[key] = v
		must(db.Update(rel, tp.ID, tp.Values))
	}
	for s := 0; s < steps; s++ {
		name := names[g.r.Intn(len(names))]
		rel := db.Relation(name)
		sc := rel.Schema()
		key := sc.ColumnIndex(sc.Key)
		a, ok := g.pick(rel, 0)
		switch op := g.r.Intn(8); {
		case op < 2 || !ok:
			_, err := db.Insert(name, g.row(sc)...)
			must(err)
		case op == 2: // every column but the key, join columns among them
			for i, c := range sc.Columns {
				if i != key {
					a.Values[i] = g.value(c)
				}
			}
			must(db.Update(name, a.ID, a.Values))
		case op == 3 && key >= 0:
			setKey(name, a, key, storage.Int(g.fresh))
			g.fresh++
		case op == 4 && key >= 0: // A:ka→x, B:kb→ka, A:x→kb
			b, ok := g.pick(rel, a.ID)
			if !ok {
				continue
			}
			ka, kb := a.Values[key], b.Values[key]
			setKey(name, a, key, storage.Int(g.fresh))
			g.fresh++
			setKey(name, b, key, ka)
			setKey(name, a, key, kb)
		case op == 5:
			_, err := db.Delete(name, a.ID)
			must(err)
		case op == 6: // the same key, a new id
			_, err := db.Delete(name, a.ID)
			must(err)
			_, err = db.Insert(name, a.Values...)
			must(err)
		default: // inserted and deleted within the interval
			id, err := db.Insert(name, g.row(sc)...)
			must(err)
			_, err = db.Delete(name, id)
			must(err)
		}
	}
	if g.r.Intn(3) == 0 {
		g.data.setSynonym(fmt.Sprintf("alias%d", g.r.Intn(4)), fmt.Sprintf("canonical %d", g.r.Intn(100)))
	}
	if g.r.Intn(3) == 0 {
		g.data.addMacro(fmt.Sprintf(`DEFINE M%d as "x."`, g.r.Intn(4)))
	}
}

// capture takes the interval's delta, as a checkpoint on top of base does.
func (g *chainGen) capture(base uint64) *DeltaData {
	db := g.data.DB
	return &DeltaData{
		BaseGen:     base,
		NextTupleID: db.NextTupleID(),
		Relations:   db.CaptureDirty().Relations,
		Synonyms:    slices.Clone(g.data.Synonyms),
		Macros:      slices.Clone(g.data.Macros),
		FKs:         db.ForeignKeys(),
	}
}

// TestCompactMatchesSynthesize: on seeded chains of one to eight deltas over
// dataset.Kinds and the wal test schemas, the merged snapshot is byte for
// byte what decoding the base, applying every delta and encoding gives (the
// path the merge replaced), it holds what the live database holds, and the
// index carried forward from the base's equals one built from the merged
// state.
func TestCompactMatchesSynthesize(t *testing.T) {
	sources := map[string]func(seed int64) *storage.Database{
		"kinds": func(seed int64) *storage.Database {
			db, _, err := dataset.Kinds(seed)
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"testdb": func(int64) *storage.Database { return testDB(t) },
	}
	for name, source := range sources {
		for seed := int64(1); seed <= 40; seed++ {
			data := &SnapshotData{DB: source(seed), Synonyms: [][2]string{{"leguin", "Ursula K. Le Guin"}}, Macros: []string{`DEFINE B as "b."`}}
			base := mustEncode(data)
			baseIndex := invidx.New(data.DB).EncodeSnapshot(1)
			g := newChainGen(t, seed, data)
			var deltas []*DeltaData
			for i, k := 0, 1+g.r.Intn(8); i < k; i++ {
				g.interval(1 + g.r.Intn(12))
				d := g.capture(uint64(i + 1))
				if i < k-1 {
					d = onDisk(t, d) // the last is the captured one, borrowing live records
				}
				deltas = append(deltas, d)
			}
			want, err := oldCompaction(base, deltas...)
			if err != nil {
				t.Fatalf("%s seed %d: the old path refused the chain: %v", name, seed, err)
			}
			obs := &indexDeriver{raw: baseIndex}
			got, err := mergeDeltas(base, obs, deltas...)
			if err != nil {
				t.Fatalf("%s seed %d: merge: %v", name, seed, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d (%d deltas): merged snapshot differs from decode-apply-encode (%d vs %d bytes)", name, seed, len(deltas), len(got), len(want))
			}
			merged, err := DecodeSnapshot("", got)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := dumpState(merged), dumpState(data); a != b {
				t.Fatalf("%s seed %d: merged state differs from the live one:\nmerged:\n%s\nlive:\n%s", name, seed, a, b)
			}
			if obs.err != nil {
				t.Fatal(obs.err)
			}
			if derived, rebuilt := obs.ix.EncodeSnapshot(2), invidx.NewParallel(merged.DB, 2).EncodeSnapshot(2); !bytes.Equal(derived, rebuilt) {
				t.Fatalf("%s seed %d: derived index differs from a rebuild (%d vs %d bytes)", name, seed, len(derived), len(rebuilt))
			}
		}
	}
}

// TestCompactPlacesReusedIDs: ids a live engine never reuses, crafted deltas
// may — a base tuple deleted and then upserted again, in one delta or in two;
// a tuple placed, deleted and placed again. The merge places each where
// applying the deltas one after another does: after the relation's last
// tuple, in the order of the delta that placed it last.
func TestCompactPlacesReusedIDs(t *testing.T) {
	base := mustEncode(&SnapshotData{DB: testDB(t)})
	author := func(id storage.TupleID, aid int64) storage.Upsert {
		return storage.Upsert{ID: id, Row: storage.MakeRow(storage.Int(aid), storage.String(fmt.Sprint("A", aid)), storage.Null, storage.Null)}
	}
	delta := func(next storage.TupleID, rels ...storage.DirtyRelation) *DeltaData {
		return &DeltaData{NextTupleID: next, Relations: rels}
	}
	for name, deltas := range map[string][]*DeltaData{
		"deleted and upserted in one delta": {
			delta(6, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(1, 1)}, Deletes: []storage.TupleID{1}})},
		"deleted, then upserted": {
			delta(6, storage.DirtyRelation{Name: "AUTHOR", Deletes: []storage.TupleID{1}}),
			delta(7, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(1, 1), author(6, 6)}})},
		"placed, deleted, placed again": {
			delta(8, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(6, 6), author(7, 7)}}),
			delta(8, storage.DirtyRelation{Name: "AUTHOR", Deletes: []storage.TupleID{6}}),
			delta(9, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(2, 20), author(6, 6), author(8, 8)}})},
		"updated in place, then deleted and placed": {
			delta(6, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(2, 20)}}),
			delta(7, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(6, 6)}, Deletes: []storage.TupleID{2}}),
			delta(7, storage.DirtyRelation{Name: "AUTHOR", Upserts: []storage.Upsert{author(2, 2)}})},
	} {
		want, err := oldCompaction(base, deltas...)
		if err != nil {
			t.Fatalf("%s: the old path refused: %v", name, err)
		}
		got, err := mergeDeltas(base, nil, deltas...)
		if err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: merged snapshot differs from decode-apply-encode:\nwant:\n%s\ngot:\n%s", name, dumpOf(t, want), dumpOf(t, got))
		}
	}
}

// compactFixture is FuzzCompact's fixed delta over the fuzz seed snapshot:
// R/1 updated, R/2 left alone, S/3 deleted, a new R tuple under key 5.
func compactFixture(t testing.TB) (base []byte, d *DeltaData) {
	base = fuzzSeedSnapshot()
	data, err := DecodeSnapshot("", base)
	if err != nil {
		t.Fatal(err)
	}
	db := data.DB
	db.EnableDirtyTracking()
	if err := db.Update("R", 1, []storage.Value{storage.Int(1), storage.String("updated"), storage.Float(2), storage.Bool(false)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("S", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("R", storage.Int(5), storage.String("new"), storage.Null, storage.Null); err != nil {
		t.Fatal(err)
	}
	return base, &DeltaData{
		NextTupleID: db.NextTupleID(),
		Relations:   db.CaptureDirty().Relations,
		Synonyms:    data.Synonyms,
		Macros:      data.Macros,
		FKs:         db.ForeignKeys(),
	}
}

// reframe rebuilds raw's frames, each payload passed through edit, with
// checksums that match: a snapshot whose damage no checksum catches.
func reframe(t testing.TB, raw []byte, edit func(i int, payload []byte) []byte) []byte {
	t.Helper()
	out := []byte(snapMagic)
	if _, err := scanFrames("", raw[len(snapMagic):], func(i int, _ int64, payload []byte) error {
		out = mustFrame(out, edit(i, append([]byte(nil), payload...)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// craftedBases are the fixture's base with its R section (frame 1) rewritten
// so that R/2, which the fixed delta does not touch, is each defect
// DecodeSnapshot must see through or refuse, and the class the old path (and
// so the merge) gives it.
func craftedBases(t testing.TB, base []byte) map[string]struct {
	raw   []byte
	class string
} {
	sc := storage.MustSchema("R", "id",
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "s", Type: storage.TypeString},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "b", Type: storage.TypeBool})
	var one enc // R/1 as the encoder writes it
	one.uvarint(1)
	one.row(storage.MakeRow(storage.Int(1), storage.String("héllo wörld"), storage.Float(3.14), storage.Bool(true)))
	section := func(tuples int, second []byte, trailing ...byte) func(int, []byte) []byte {
		return func(i int, payload []byte) []byte {
			if i != 1 {
				return payload
			}
			var e enc
			e.schema(sc)
			e.uvarint(uint64(tuples))
			e.b = append(append(append(e.b, one.b...), second...), trailing...)
			return e.b
		}
	}
	kinds := func(b ...byte) []byte { return b }
	negZero := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1)))
	// R/2: id 2 in two bytes, four values counted in two, key 2, an empty
	// string's length in two bytes, −0, a bool of 2.
	noncanonical := append(kinds(0x82, 0x00, 0x84, 0x00, byte(storage.KindInt), 4, byte(storage.KindString), 0x80, 0x00, byte(storage.KindFloat)), negZero...)
	noncanonical = append(noncanonical, byte(storage.KindBool), 2)
	canonical := kinds(2, 4, byte(storage.KindInt), 4, byte(storage.KindNull), byte(storage.KindNull), byte(storage.KindBool), 0)
	withID := func(id uint64, rest []byte) []byte { return append(binary.AppendUvarint(nil, id), rest[1:]...) }
	cases := map[string]struct {
		raw   []byte
		class string
	}{
		"valid":        {base, "ok"},
		"truncated":    {base[:len(base)-7], "incomplete"},
		"noncanonical": {reframe(t, base, section(2, noncanonical)), "ok"},
		"trailing":     {reframe(t, base, section(2, canonical, 0xde, 0xad)), "ok"},
		"above-cap":    {reframe(t, base, section(2, withID(uint64(storage.MaxTupleID)+1, canonical))), "out of ids"},
		"zero-id":      {reframe(t, base, section(2, withID(0, canonical))), "corruption"},
		"dup-id":       {reframe(t, base, section(2, withID(1, canonical))), "corruption"},
		"arity":        {reframe(t, base, section(2, kinds(2, 3, byte(storage.KindInt), 4, byte(storage.KindNull), byte(storage.KindNull)))), "corruption"},
		"null-key":     {reframe(t, base, section(2, kinds(2, 4, byte(storage.KindNull), byte(storage.KindNull), byte(storage.KindNull), byte(storage.KindNull)))), "corruption"},
		"wrong-kind":   {reframe(t, base, section(2, kinds(2, 4, byte(storage.KindInt), 4, byte(storage.KindBool), 1, byte(storage.KindNull), byte(storage.KindNull)))), "corruption"},
		"bad-kind":     {reframe(t, base, section(2, kinds(2, 4, byte(storage.KindInt), 4, 9, byte(storage.KindNull), byte(storage.KindNull)))), "corruption"},
		"short":        {reframe(t, base, section(3, canonical)), "corruption"},
		"key-clash":    {reframe(t, base, section(2, kinds(2, 4, byte(storage.KindInt), 10, byte(storage.KindNull), byte(storage.KindNull), byte(storage.KindNull)))), "refused"},
	}
	flip := append([]byte(nil), base...)
	flip[len(flip)/2] ^= 0x10
	cases["bitflip"] = struct {
		raw   []byte
		class string
	}{flip, "corruption"}
	return cases
}

// TestCompactRefusesWhereDecodeRefuses: on bases whose damage the checksums
// miss, the merge refuses where decoding the base and applying the delta
// refuses, with the same classification, and otherwise writes its bytes —
// re-encoding a tuple the encoder would not have written as it stands.
func TestCompactRefusesWhereDecodeRefuses(t *testing.T) {
	base, d := compactFixture(t)
	for name, c := range craftedBases(t, base) {
		want, wantErr := oldCompaction(c.raw, d)
		got, gotErr := mergeDeltas(c.raw, nil, d)
		if errClass(wantErr) != c.class {
			t.Errorf("%s: the old path gives %s (%v), the case is built for %s", name, errClass(wantErr), wantErr, c.class)
		}
		if errClass(gotErr) != errClass(wantErr) {
			t.Errorf("%s: merge gives %s (%v), the old path %s (%v)", name, errClass(gotErr), gotErr, errClass(wantErr), wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Errorf("%s: merged bytes differ from the old path's", name)
		}
	}
}

// FuzzCompact mutates the base snapshot under a fixed delta: the merge must
// refuse exactly where decoding the base and applying the delta refuses,
// with the same classification, and otherwise write the same bytes.
func FuzzCompact(f *testing.F) {
	base, d := compactFixture(f)
	for _, c := range craftedBases(f, base) {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		want, wantErr := oldCompaction(raw, d)
		got, gotErr := mergeDeltas(raw, nil, d)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("merge gives %s (%v), the old path %s (%v)", errClass(gotErr), gotErr, errClass(wantErr), wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("merged bytes differ from the old path's (%d vs %d)", len(got), len(want))
		}
	})
}

// TestCompactRefusesDuplicates: a captured delta that would leave a primary
// key or a tuple id held twice, or that names a relation the base lacks, is
// refused by Compact, and the chain it would have replaced is kept: still
// the store's, still on disk, still what a reopen recovers.
func TestCompactRefusesDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	calvino, _ := db.Relation("AUTHOR").Get(2)
	calvino.Values[1] = storage.String("Calvino")
	if err := s.Append(Record{Op: OpUpdate, Rel: "AUTHOR", ID: 2, Values: calvino.Values}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("AUTHOR", 2, calvino.Values); err != nil {
		t.Fatal(err)
	}
	h, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteDelta(h, &DeltaData{NextTupleID: db.NextTupleID(), Relations: db.CaptureDirty().Relations, FKs: db.ForeignKeys()}); err != nil {
		t.Fatal(err)
	}
	chain := s.Chain()
	want := dumpState(&SnapshotData{DB: db})

	author := func(aid int64) storage.Row {
		return storage.MakeRow(storage.Int(aid), storage.String("Someone"), storage.Float(1), storage.Bool(true))
	}
	next := db.NextTupleID()
	for name, rels := range map[string][]storage.DirtyRelation{
		"key held by an untouched tuple": {{Name: "AUTHOR", Upserts: []storage.Upsert{{ID: next, Row: author(1)}}}},
		"key given to two tuples":        {{Name: "AUTHOR", Upserts: []storage.Upsert{{ID: next, Row: author(50)}, {ID: next + 1, Row: author(50)}}}},
		"id held by another relation": {{Name: "BOOK", Upserts: []storage.Upsert{{ID: 1,
			Row: storage.MakeRow(storage.Int(99), storage.String("t"), storage.Null)}}}},
		"id given to two relations": {
			{Name: "AUTHOR", Upserts: []storage.Upsert{{ID: next, Row: author(51)}}},
			{Name: "BOOK", Upserts: []storage.Upsert{{ID: next, Row: storage.MakeRow(storage.Int(98), storage.Null, storage.Null)}}}},
		"unknown relation": {{Name: "NOPE", Deletes: []storage.TupleID{1}}},
		"row of the wrong arity": {{Name: "AUTHOR", Upserts: []storage.Upsert{{ID: next,
			Row: storage.MakeRow(storage.Int(52))}}}},
	} {
		h, err := s.BeginCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		d := &DeltaData{NextTupleID: next + 2, Relations: rels, FKs: db.ForeignKeys()}
		if _, err := s.Compact(h, d, nil); err == nil {
			t.Fatalf("%s: the compaction was not refused", name)
		}
		h.Abort()
		if got := s.Chain(); !slices.Equal(got, chain) {
			t.Fatalf("%s: chain %v after the refusal, want %v", name, got, chain)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("reopen after refused compactions: %v", err)
	}
	defer s2.Close()
	if rec.ChainDepth != len(chain) {
		t.Fatalf("recovered chain depth %d, want %d", rec.ChainDepth, len(chain))
	}
	if got := dumpState(&SnapshotData{DB: rec.Data.DB}); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFlattenedSnapshotFoldsLogs: a follower's bootstrap snapshot — the
// chain's deltas and then the records of the logs between the chain tip and
// the active generation, merged into the base — equals what decoding the
// chain, replaying those logs one record at a time and encoding gives. The
// logs move keys round a cycle, delete a key and insert it again, and carry
// every extra; the chain is a base alone, and a base with a delta.
func TestFlattenedSnapshotFoldsLogs(t *testing.T) {
	for _, withDelta := range []bool{false, true} {
		dir := t.TempDir()
		s, _, err := Open(dir, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		db := testDB(t)
		if err := s.Initialize(&SnapshotData{DB: db, Synonyms: [][2]string{{"old", "Old"}}}); err != nil {
			t.Fatal(err)
		}
		logged := func(recs ...Record) {
			t.Helper()
			for _, r := range recs {
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
				if err := r.Apply(&SnapshotData{DB: db}); err != nil {
					t.Fatal(err)
				}
			}
		}
		author := func(id storage.TupleID, aid int64, name string) Record {
			return Record{Op: OpUpdate, Rel: "AUTHOR", ID: id, Values: []storage.Value{storage.Int(aid), storage.String(name), storage.Float(4), storage.Bool(true)}}
		}
		if withDelta {
			logged(author(1, 1, "Le Guin"))
			h, err := s.BeginCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CompleteDelta(h, &DeltaData{NextTupleID: db.NextTupleID(), Relations: db.CaptureDirty().Relations,
				FKs: db.ForeignKeys(), Synonyms: [][2]string{{"old", "Old"}}}); err != nil {
				t.Fatal(err)
			}
		}
		chain := s.Chain()
		ins := Record{Op: OpInsert, Rel: "AUTHOR", ID: db.NextTupleID(), Values: []storage.Value{storage.Int(3), storage.String("Eco"), storage.Null, storage.Null}}
		logged(author(1, 1000, "Le Guin"), author(2, 1, "Calvino"), author(1, 2, "Le Guin"), // 1→x, 2→1, x→2
			ins, Record{Op: OpDelete, Rel: "AUTHOR", ID: ins.ID},
			Record{Op: OpInsert, Rel: "AUTHOR", ID: ins.ID + 1, Values: ins.Values},
			Record{Op: OpDelete, Rel: "BOOK", ID: 5},
			Record{Op: OpSynonym, Alias: "old", Canonical: "Older"}, Record{Op: OpSynonym, Alias: "w", Canonical: "Woody"},
			Record{Op: OpMacro, Def: `DEFINE M as "m."`},
			Record{Op: OpAddFK, FK: storage.ForeignKey{FromRelation: "AUTHOR", FromColumn: "aid", ToRelation: "AUTHOR", ToColumn: "aid"}})
		// A rotation with no checkpoint behind it: the log stays between the
		// chain tip and the active generation.
		h, err := s.BeginCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		h.Abort()
		gen, got, err := s.FlattenedSnapshot()
		if err != nil {
			t.Fatalf("delta %t: %v", withDelta, err)
		}
		if gen != s.Generation() {
			t.Fatalf("flattened generation %d, active %d", gen, s.Generation())
		}

		raw, err := os.ReadFile(filepath.Join(dir, snapshotName(chain[0])))
		if err != nil {
			t.Fatal(err)
		}
		data, err := DecodeSnapshot("", raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range chain[1:] {
			raw, err := os.ReadFile(filepath.Join(dir, deltaName(g)))
			if err != nil {
				t.Fatal(err)
			}
			d, err := DecodeDelta("", raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := ApplyDelta(data, d, nil); err != nil {
				t.Fatal(err)
			}
		}
		for g := chain[len(chain)-1]; g < gen; g++ {
			if _, err := ReplayFile(filepath.Join(dir, walName(g)), func(r Record) error { return r.apply(data) }); err != nil {
				t.Fatal(err)
			}
		}
		if want := mustEncode(data); !bytes.Equal(got, want) {
			t.Fatalf("delta %t: flattened snapshot differs from decode-replay-encode:\nwant:\n%s\ngot:\n%s", withDelta, dumpState(data), dumpOf(t, got))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func dumpOf(t *testing.T, raw []byte) string {
	data, err := DecodeSnapshot("", raw)
	if err != nil {
		return err.Error()
	}
	return dumpState(data)
}

// churnInterval is n of a churning workload's writes: genre rows inserted
// and deleted, directors renamed.
func churnInterval(b *testing.B, db *storage.Database, r *rand.Rand, n int) {
	pick := func(rel string) storage.TupleID {
		var at storage.TupleID
		skip := r.Intn(db.Relation(rel).Len())
		db.Relation(rel).ScanRows(func(id storage.TupleID, _ storage.Row) bool { at = id; skip--; return skip >= 0 })
		return at
	}
	for i := 0; i < n; i++ {
		var err error
		switch r.Intn(4) {
		case 0, 1:
			_, err = db.Insert("GENRE", storage.Int(int64(1+r.Intn(2000))), storage.String(fmt.Sprintf("bench-%d", r.Intn(1e6))))
		case 2:
			_, err = db.Delete("GENRE", pick("GENRE"))
		default:
			did := pick("DIRECTOR")
			tp, _ := db.Relation("DIRECTOR").Get(did)
			tp.Values[1] = storage.String(fmt.Sprintf("Renamed %d", r.Intn(1e6)))
			err = db.Update("DIRECTOR", did, tp.Values)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact times one compaction of a churned chain over
// dataset.DefaultSyntheticConfig: seven delta checkpoints of 50 writes each
// on a base whose index is persisted, then the compaction of the chain and an
// eighth interval's captured delta — the merged snapshot, the index carried
// forward from the base's, both written.
func BenchmarkCompact(b *testing.B) {
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		b.Fatal(err)
	}
	template := b.TempDir()
	s, _, err := Open(template, storeConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.InitializeIndexed(&SnapshotData{DB: db}, invidx.NewParallel(db, runtime.GOMAXPROCS(0)).EncodeSnapshot(1)); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 7; k++ {
		churnInterval(b, db, r, 50)
		h, err := s.BeginCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.CompleteDelta(h, &DeltaData{NextTupleID: db.NextTupleID(), Relations: db.CaptureDirty().Relations, FKs: db.ForeignKeys()}); err != nil {
			b.Fatal(err)
		}
	}
	churnInterval(b, db, r, 50)
	d := &DeltaData{NextTupleID: db.NextTupleID(), Relations: db.CaptureDirty().Relations, FKs: db.ForeignKeys()}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		for _, name := range []string{snapshotName(1), IndexSnapshotName(1), walName(8)} {
			raw, err := os.ReadFile(filepath.Join(template, name))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, name), raw, 0o644)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for g := uint64(2); g <= 8; g++ {
			raw, err := os.ReadFile(filepath.Join(template, deltaName(g)))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, deltaName(g)), raw, 0o644)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		s, _, err := Open(dir, storeConfig())
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()

		h, err := s.BeginCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		raw, indexRaw := []byte(nil), []byte(nil)
		index := &indexDeriver{}
		if index.raw, err = os.ReadFile(filepath.Join(dir, IndexSnapshotName(1))); err == nil {
			raw, err = s.Compact(h, d, index)
		}
		if err == nil && index.err == nil {
			indexRaw = index.ix.EncodeSnapshot(h.Gen())
			err = s.CompleteFull(h, raw, indexRaw)
		}
		if err != nil || index.err != nil {
			b.Fatal(err, index.err)
		}

		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
