package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/storage"
)

// mustFrame frames a payload known to be under the frame limit (every
// test input is); it panics instead of returning the impossible error.
func mustFrame(dst, payload []byte) []byte {
	out, err := appendFrame(dst, payload)
	if err != nil {
		panic(err)
	}
	return out
}

// mustEncode encodes a snapshot known to fit in its frames (every test
// state does); it panics instead of returning the impossible error.
func mustEncode(data *SnapshotData) []byte {
	raw, err := EncodeSnapshot(data)
	if err != nil {
		panic(err)
	}
	return raw
}

// testDB builds a small two-relation database with a foreign key and a few
// tuples, exercising every value kind the codec handles.
func testDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("testdb")
	author := storage.MustSchema("AUTHOR", "aid",
		storage.Column{Name: "aid", Type: storage.TypeInt},
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "rating", Type: storage.TypeFloat},
		storage.Column{Name: "active", Type: storage.TypeBool})
	book := storage.MustSchema("BOOK", "bid",
		storage.Column{Name: "bid", Type: storage.TypeInt},
		storage.Column{Name: "title", Type: storage.TypeString},
		storage.Column{Name: "aid", Type: storage.TypeInt})
	for _, s := range []*storage.Schema{author, book} {
		if _, err := db.CreateRelation(s); err != nil {
			t.Fatalf("CreateRelation: %v", err)
		}
	}
	if err := db.AddForeignKey(storage.ForeignKey{
		FromRelation: "BOOK", FromColumn: "aid", ToRelation: "AUTHOR", ToColumn: "aid",
	}); err != nil {
		t.Fatalf("AddForeignKey: %v", err)
	}
	mustInsert := func(rel string, vals ...storage.Value) storage.TupleID {
		id, err := db.Insert(rel, vals...)
		if err != nil {
			t.Fatalf("Insert %s: %v", rel, err)
		}
		return id
	}
	a1 := mustInsert("AUTHOR", storage.Int(1), storage.String("Ursula K. Le Guin"), storage.Float(4.9), storage.Bool(true))
	a2 := mustInsert("AUTHOR", storage.Int(2), storage.String("Italo Calvino"), storage.Float(4.8), storage.Bool(false))
	mustInsert("BOOK", storage.Int(10), storage.String("The Dispossessed"), storage.Int(int64(a1)))
	mustInsert("BOOK", storage.Int(11), storage.String("Invisible Cities"), storage.Int(int64(a2)))
	mustInsert("BOOK", storage.Int(12), storage.Null, storage.Null)
	return db
}

// dumpState renders recovered state deterministically for equality checks.
func dumpState(s *SnapshotData) string {
	var sb strings.Builder
	db := s.DB
	fmt.Fprintf(&sb, "db=%s next=%d\n", db.Name(), db.NextTupleID())
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		sc := rel.Schema()
		fmt.Fprintf(&sb, "rel %s key=%s cols=", name, sc.Key)
		for _, c := range sc.Columns {
			fmt.Fprintf(&sb, "%s:%s,", c.Name, c.Type)
		}
		sb.WriteByte('\n')
		rel.Scan(func(t storage.Tuple) bool {
			fmt.Fprintf(&sb, "  #%d %v\n", t.ID, t.Values)
			return true
		})
	}
	for _, fk := range db.ForeignKeys() {
		fmt.Fprintf(&sb, "fk %s.%s->%s.%s\n", fk.FromRelation, fk.FromColumn, fk.ToRelation, fk.ToColumn)
	}
	// Snapshots store synonyms sorted by alias; normalize for comparison.
	syn := append([][2]string(nil), s.Synonyms...)
	sort.Slice(syn, func(i, j int) bool { return syn[i][0] < syn[j][0] })
	for _, p := range syn {
		fmt.Fprintf(&sb, "syn %q=%q\n", p[0], p[1])
	}
	for _, m := range s.Macros {
		fmt.Fprintf(&sb, "macro %q\n", m)
	}
	return sb.String()
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func TestSnapshotRoundTrip(t *testing.T) {
	data := &SnapshotData{
		DB:       testDB(t),
		Synonyms: [][2]string{{"leguin", "Ursula K. Le Guin"}, {"calvino", "Italo Calvino"}},
		Macros:   []string{"DEFINE FAVS AS The Dispossessed"},
	}
	raw := mustEncode(data)
	if !bytes.Equal(raw, mustEncode(data)) {
		t.Fatal("EncodeSnapshot is not deterministic")
	}
	got, err := DecodeSnapshot("rt", raw)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if d1, d2 := dumpState(data), dumpState(got); d1 != d2 {
		t.Fatalf("round trip mismatch:\nwant:\n%s\ngot:\n%s", d1, d2)
	}
	// A decoded database keeps allocating fresh IDs above the watermark.
	id, err := got.DB.Insert("AUTHOR", storage.Int(3), storage.String("x"), storage.Float(1), storage.Bool(true))
	if err != nil {
		t.Fatalf("Insert after decode: %v", err)
	}
	if want := data.DB.NextTupleID(); id != want {
		t.Fatalf("next ID after decode = %d, want %d", id, want)
	}
}

// TestSnapshotBitFlips flips every bit of an encoded snapshot, one at a
// time, and requires the decoder to report an error for each: CRC32C
// detects all single-bit errors, so no flip may be silently accepted.
func TestSnapshotBitFlips(t *testing.T) {
	data := &SnapshotData{DB: testDB(t), Synonyms: [][2]string{{"a", "b"}}, Macros: []string{"DEFINE M AS x"}}
	raw := mustEncode(data)
	for i := range raw {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if _, err := DecodeSnapshot("flip", mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d silently accepted", i, bit)
			}
		}
	}
}

// TestSnapshotTruncationIsIncomplete cuts the snapshot at every frame
// boundary-ish prefix and requires "incomplete", never "corrupt": an
// interrupted write must stay distinguishable from a flipped bit.
func TestSnapshotTruncationIsIncomplete(t *testing.T) {
	data := &SnapshotData{DB: testDB(t)}
	raw := mustEncode(data)
	for cut := 0; cut < len(raw); cut++ {
		_, err := DecodeSnapshot("cut", raw[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		var ce *CorruptionError
		if errors.As(err, &ce) {
			t.Fatalf("truncation at %d misclassified as corruption: %v", cut, err)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Rel: "BOOK", ID: 7, Values: []storage.Value{storage.Int(7), storage.String("t"), storage.Null}},
		{Op: OpUpdate, Rel: "BOOK", ID: 7, Values: []storage.Value{storage.Float(1.5), storage.Bool(true)}},
		{Op: OpDelete, Rel: "BOOK", ID: 7},
		{Op: OpSynonym, Alias: "w allen", Canonical: "Woody Allen"},
		{Op: OpMacro, Def: "DEFINE X AS y"},
	}
	for _, r := range recs {
		payload := r.encode(nil)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decodeRecord(%s): %v", r.Op, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", r) {
			t.Fatalf("record %s round trip: got %+v want %+v", r.Op, got, r)
		}
		// Trailing garbage must be rejected.
		if _, err := decodeRecord(append(payload, 0)); err == nil {
			t.Fatalf("record %s accepted trailing bytes", r.Op)
		}
	}
	if _, err := decodeRecord([]byte{99}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// walRecords builds a framed WAL byte stream of n insert records and
// returns it plus the frame end offsets.
func walRecords(n int) (raw []byte, ends []int64) {
	for i := 0; i < n; i++ {
		r := Record{Op: OpInsert, Rel: "AUTHOR", ID: storage.TupleID(100 + i),
			Values: []storage.Value{storage.Int(int64(i)), storage.String(fmt.Sprintf("name-%d", i)), storage.Float(0.5), storage.Bool(i%2 == 0)}}
		raw = mustFrame(raw, r.encode(nil))
		ends = append(ends, int64(len(raw)))
	}
	return raw, ends
}

// TestReplayTornTailEveryOffset truncates a 5-record log at every byte
// offset: replay must yield exactly the records whose frames survived
// whole, truncate the torn remainder from the file, and never error.
func TestReplayTornTailEveryOffset(t *testing.T) {
	raw, ends := walRecords(5)
	dir := t.TempDir()
	for cut := 0; cut <= len(raw); cut++ {
		complete := 0
		for _, e := range ends {
			if e <= int64(cut) {
				complete++
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("wal-%d.log", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got int
		info, err := ReplayFile(path, func(r Record) error { got++; return nil })
		if err != nil {
			t.Fatalf("cut %d: replay failed: %v", cut, err)
		}
		if got != complete || info.Records != complete {
			t.Fatalf("cut %d: replayed %d records (info %d), want %d", cut, got, info.Records, complete)
		}
		if complete < len(ends) && int64(cut) > endOf(ends, complete) {
			if info.TornBytes != int64(cut)-endOf(ends, complete) {
				t.Fatalf("cut %d: torn bytes %d, want %d", cut, info.TornBytes, int64(cut)-endOf(ends, complete))
			}
			st, _ := os.Stat(path)
			if st.Size() != endOf(ends, complete) {
				t.Fatalf("cut %d: file not truncated to %d (size %d)", cut, endOf(ends, complete), st.Size())
			}
		} else if info.TornBytes != 0 {
			t.Fatalf("cut %d: unexpected torn bytes %d", cut, info.TornBytes)
		}
	}
}

// endOf returns the end offset of the first `complete` frames.
func endOf(ends []int64, complete int) int64 {
	if complete == 0 {
		return 0
	}
	return ends[complete-1]
}

// TestReplayMidLogCorruption flips one bit in every byte of every record
// but the last: with complete data following, that is corruption, and the
// error must carry file, offset, and record index.
func TestReplayMidLogCorruption(t *testing.T) {
	raw, ends := walRecords(3)
	limit := ends[1] // corrupt only the first two records — the third follows them
	for off := int64(0); off < limit; off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		_, err := ReplayBytes(mut, nil)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: want CorruptionError, got %v", off, err)
		}
		wantRec := 0
		if off >= ends[0] {
			wantRec = 1
		}
		if ce.Record != wantRec {
			t.Fatalf("flip at %d: blamed record %d, want %d", off, ce.Record, wantRec)
		}
		wantOff := endOf(ends, wantRec)
		if ce.Offset != wantOff {
			t.Fatalf("flip at %d: blamed offset %d, want %d", off, ce.Offset, wantOff)
		}
	}
}

// TestReplayFinalRecordBitFlip distinguishes the two final-record cases:
// a flipped bit in the final frame's length field is corruption (the
// header survived whole, so a torn write cannot explain it); a flipped bit
// in the final payload is also corruption since the payload is full
// length.
func TestReplayFinalRecordBitFlip(t *testing.T) {
	raw, ends := walRecords(2)
	start := ends[0]
	for off := start; off < int64(len(raw)); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		_, err := ReplayBytes(mut, nil)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("final-record flip at %d: want CorruptionError, got %v", off, err)
		}
		if ce.Record != 1 || ce.Offset != start {
			t.Fatalf("final-record flip at %d: blamed record %d offset %d", off, ce.Record, ce.Offset)
		}
	}
}

func storeConfig() Config { return Config{Fsync: FsyncNever, Logger: quietLogger()} }

func TestStoreInitializeAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.Data != nil {
		t.Fatal("fresh dir recovered data")
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatalf("Initialize: %v", err)
	}
	if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: db.NextTupleID(),
		Values: []storage.Value{storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true)}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Append(Record{Op: OpSynonym, Alias: "jlb", Canonical: "Borges"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.Data == nil || rec2.WALRecords != 2 || rec2.Gen != 1 {
		t.Fatalf("recovery = %+v, want gen 1 with 2 records", rec2)
	}
	if got := rec2.Data.DB.Relation("AUTHOR").Len(); got != 3 {
		t.Fatalf("AUTHOR has %d tuples after recovery, want 3", got)
	}
	if len(rec2.Data.Synonyms) != 1 || rec2.Data.Synonyms[0] != [2]string{"jlb", "Borges"} {
		t.Fatalf("synonyms = %v", rec2.Data.Synonyms)
	}
}

func TestStoreCheckpointRotatesAndGCs(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("AUTHOR", storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpInsert, Rel: "AUTHOR", ID: id,
		Values: []storage.Value{storage.Int(9), storage.String("Borges"), storage.Float(5), storage.Bool(true)}}); err != nil {
		t.Fatal(err)
	}
	h, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatalf("BeginCheckpoint: %v", err)
	}
	raw, err := EncodeSnapshot(&SnapshotData{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteFull(h, raw, nil); err != nil {
		t.Fatalf("CompleteFull: %v", err)
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	for _, old := range []string{snapshotName(1), walName(1)} {
		if exists(filepath.Join(dir, old)) {
			t.Fatalf("generation-1 file %s survived GC", old)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	if rec.Gen != 2 || rec.WALRecords != 0 {
		t.Fatalf("recovered %+v, want gen 2, 0 WAL records", rec)
	}
	if got := rec.Data.DB.Relation("AUTHOR").Len(); got != 3 {
		t.Fatalf("AUTHOR has %d tuples, want 3", got)
	}
}

func TestStoreRefusesWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName(1)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, storeConfig()); err == nil {
		t.Fatal("Open accepted a WAL with no snapshot")
	}
}

// TestStoreIncompleteSnapshotFallback simulates a crash between snapshot
// rename and WAL creation on a filesystem that made the incomplete rename
// visible: the newest snapshot lacks its trailer and has no WAL, so Open
// falls back to the previous generation.
func TestStoreIncompleteSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Write a truncated generation-2 snapshot without a WAL.
	raw := mustEncode(&SnapshotData{DB: db})
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("Open did not fall back: %v", err)
	}
	if rec.Gen != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", rec.Gen)
	}
	if exists(filepath.Join(dir, snapshotName(2))) {
		t.Fatal("incomplete snapshot not removed")
	}

	// The same truncated snapshot WITH a WAL present is a hard failure:
	// falling back would lose that WAL's committed records.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(3)), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(3)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, storeConfig()); err == nil {
		t.Fatal("Open silently discarded an incomplete snapshot that owned a WAL")
	}
}

// TestStoreCorruptSnapshotHardFails flips a bit mid-snapshot: recovery must
// refuse to fall back (silent fallback would resurrect deleted data).
func TestStoreCorruptSnapshotHardFails(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(&SnapshotData{DB: testDB(t)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, storeConfig())
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptionError", err)
	}
	if ce.File != path {
		t.Fatalf("corruption blamed %q, want %q", ce.File, path)
	}
}

// TestGroupCommit runs concurrent FsyncAlways appends and checks that the
// writer shared fsyncs between them (far fewer fsyncs than appends) while
// every append still returned durable. A small injected fsync latency
// makes the overlap deterministic: on a fast filesystem real fsyncs can
// finish before the next appender arrives, leaving batching to scheduler
// luck and the assertion flaky.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := openWriter(filepath.Join(dir, walName(1)), FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALFsync, faultinject.Rule{Delay: 2 * time.Millisecond}))
	defer deactivate()
	reg := obs.NewRegistry()
	m := &Metrics{
		AppendedBytes:   reg.Counter("b"),
		AppendedRecords: reg.Counter("r"),
		Fsyncs:          reg.Counter("f"),
		FsyncSeconds:    reg.Histogram("fs"),
	}
	w.SetMetrics(m)
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := Record{Op: OpMacro, Def: fmt.Sprintf("DEFINE M%d_%d AS x", g, i)}
				if _, err := w.Append(r.encode(nil)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appends := m.AppendedRecords.Load()
	fsyncs := m.Fsyncs.Load()
	if appends != goroutines*perG {
		t.Fatalf("appended %d records, want %d", appends, goroutines*perG)
	}
	// Close adds one final fsync; group commit should still have batched.
	if fsyncs >= appends {
		t.Fatalf("no group commit: %d fsyncs for %d appends", fsyncs, appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs", appends, fsyncs)
	// Every record must replay.
	info, err := ReplayFile(filepath.Join(dir, walName(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", info.Records, goroutines*perG)
	}
}

// TestFsyncPolicies exercises each policy end to end. The policies may
// differ only in when they flush, so all three must write the same log bytes.
func TestFsyncPolicies(t *testing.T) {
	var firstLog []byte
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(dir, Config{Fsync: p, Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Initialize(&SnapshotData{DB: testDB(t)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := s.Append(Record{Op: OpMacro, Def: fmt.Sprintf("DEFINE P%d AS x", i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, walName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if firstLog == nil {
				firstLog = raw
			} else if !bytes.Equal(raw, firstLog) {
				t.Fatalf("fsync=%s wrote a %d-byte log, fsync=always %d bytes: policies must write identical logs",
					p, len(raw), len(firstLog))
			}
			_, rec, err := Open(dir, Config{Fsync: p, Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			if rec.WALRecords != 10 {
				t.Fatalf("recovered %d records, want 10", rec.WALRecords)
			}
			if len(rec.Data.Macros) != 10 {
				t.Fatalf("recovered %d macros, want 10", len(rec.Data.Macros))
			}
		})
	}
}

// TestFsyncFailurePoisonsWriter proves the no-phantom-record guarantee:
// when an fsync fails after the frame bytes were already written, the
// writer must truncate the un-durable tail off the file and refuse every
// further append. Without that, the rolled-back record's bytes would still
// sit in the log, a later group commit (or plain OS writeback) would make
// them durable, and crash recovery would replay a mutation the engine
// reported failed.
func TestFsyncFailurePoisonsWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName(1))
	w, err := openWriter(path, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Op: OpMacro, Def: "DEFINE A AS x"}.encode(nil)); err != nil {
		t.Fatal(err)
	}
	durable := w.Size()

	errBoom := errors.New("injected fsync failure")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALFsync, faultinject.Rule{Err: errBoom}))
	if _, err := w.Append(Record{Op: OpMacro, Def: "DEFINE B AS y"}.encode(nil)); !errors.Is(err, errBoom) {
		t.Fatalf("Append under fsync failure = %v, want injected error", err)
	}
	deactivate()

	// The failed frame's bytes must be gone: the file holds exactly the
	// durable prefix, so nothing a caller rolled back can ever replay.
	if got := w.Size(); got != durable {
		t.Fatalf("size after poisoned append = %d, want %d (un-durable tail not truncated)", got, durable)
	}
	var defs []string
	info, err := ReplayFile(path, func(r Record) error {
		defs = append(defs, r.Def)
		return nil
	})
	if err != nil {
		t.Fatalf("replay after poisoning: %v", err)
	}
	if info.Records != 1 || len(defs) != 1 || defs[0] != "DEFINE A AS x" {
		t.Fatalf("replayed %d records %v, want only the durable one", info.Records, defs)
	}

	// The poison is sticky: with the fault gone, appends and syncs still
	// refuse — a device that failed one fsync cannot be trusted with the
	// next, and the store heals by checkpointing into a fresh generation.
	if _, err := w.Append(Record{Op: OpMacro, Def: "DEFINE C AS z"}.encode(nil)); err == nil {
		t.Fatal("append to poisoned writer succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync on poisoned writer succeeded")
	}
	_ = w.Close() // surfaces the sticky error; the file itself is closed
}

// TestStoreCheckpointHealsPoisonedWriter: after an fsync failure poisons
// the active WAL, a checkpoint's rotation is refused with ErrUnsyncedLog and
// Supersede writes a fresh snapshot of the (consistent, rolled-back)
// in-memory state and rotates to a new generation with a healthy writer —
// the documented recovery path without a restart.
func TestStoreCheckpointHealsPoisonedWriter(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	if err := s.Initialize(&SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpMacro, Def: "DEFINE A AS x"}); err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("injected fsync failure")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALFsync, faultinject.Rule{Err: errBoom}))
	if err := s.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("Sync under fsync failure = %v, want injected error", err)
	}
	deactivate()
	if err := s.Append(Record{Op: OpMacro, Def: "DEFINE B AS y"}); err == nil {
		t.Fatal("append to poisoned store succeeded")
	}
	if _, err := s.BeginCheckpoint(); !errors.Is(err, ErrUnsyncedLog) {
		t.Fatalf("BeginCheckpoint on a poisoned store = %v, want ErrUnsyncedLog", err)
	}
	if err := s.Supersede(&SnapshotData{DB: db, Macros: []string{"DEFINE A AS x"}}, nil); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	if err := s.Append(Record{Op: OpMacro, Def: "DEFINE C AS z"}); err != nil {
		t.Fatalf("append after healing checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, storeConfig())
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if len(rec.Data.Macros) != 2 {
		t.Fatalf("recovered macros %v, want the checkpointed A and the post-heal C", rec.Data.Macros)
	}
	// Recovery dates LastCkpt from the loaded snapshot, so time-triggered
	// checkpointing does not fire spuriously on every boot and stats stay
	// truthful after a restart.
	if s2.Stats().LastCkpt.IsZero() {
		t.Fatal("LastCkpt is zero after recovery")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

// TestDecoderAdversarialCounts feeds frames whose declared element counts
// vastly exceed the input and checks the decoder allocates nothing absurd
// (it must error out instead).
func TestDecoderAdversarialCounts(t *testing.T) {
	// An insert record claiming 2^40 values in 3 bytes of payload.
	var e enc
	e.u8(uint8(OpInsert))
	e.str("R")
	e.uvarint(1)
	e.uvarint(1 << 40)
	if _, err := decodeRecord(e.bytes()); err == nil {
		t.Fatal("absurd value count accepted")
	}
	// A snapshot header claiming 2^40 relations.
	var h enc
	h.uvarint(snapVersion)
	h.str("db")
	h.uvarint(1)
	h.uvarint(1 << 40)
	raw := mustFrame([]byte(snapMagic), h.bytes())
	if _, err := DecodeSnapshot("", raw); err == nil {
		t.Fatal("absurd relation count accepted")
	}
	// A string claiming to be longer than the payload.
	var se enc
	se.u8(uint8(OpMacro))
	se.uvarint(1 << 30)
	if _, err := decodeRecord(se.bytes()); err == nil {
		t.Fatal("absurd string length accepted")
	}
}
