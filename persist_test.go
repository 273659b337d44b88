package precis

// Persistence suite: the engine-level durability layer (Open, WAL-logged
// mutations, Checkpoint, Close, recovery) must round-trip every piece of
// engine state — tuples with identities, foreign keys, synonyms, narrative
// macros — and a failed WAL append must leave memory exactly as it was.

import (
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/storage"
)

// quietPersistConfig is the test default: no background checkpoints, no
// fsync (tests exercise durability by re-reading files, not by surviving
// real power loss), no log spam.
func quietPersistConfig(dir string) PersistConfig {
	return PersistConfig{
		Dir:             dir,
		Fsync:           FsyncNever,
		CheckpointBytes: -1, // manual checkpoints only
		Logger:          log.New(io.Discard, "", 0),
	}
}

// openPersistent builds a persistent engine over the example movies
// database in dir.
func openPersistent(t *testing.T, dir string) *Engine {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(db, g, quietPersistConfig(dir))
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// numStandardMacros is how many WAL records openPersistent itself logs.
var numStandardMacros = len(dataset.StandardMacros())

// copyDataDir clones a data directory file by file (the moral equivalent
// of what a crash leaves on disk, given FsyncNever writes still reach the
// page cache and our reads go through it).
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestOpenEmptyDirIsInMemory(t *testing.T) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(db, g, PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.PersistStats()
	if st.Enabled {
		t.Fatal("in-memory engine reports persistence enabled")
	}
	if err := eng.Checkpoint(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("Checkpoint on in-memory engine = %v, want ErrNotPersistent", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close on in-memory engine = %v", err)
	}
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("drama")); err != nil {
		t.Fatalf("mutation after no-op Close failed: %v", err)
	}
}

func TestPersistRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	did, err := eng.Insert("DIRECTOR", storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento"), storage.String("1983"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("MOVIE", storage.Int(910), storage.String("Lady Bird"), storage.Int(2017), storage.Int(900)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Update("DIRECTOR", did, []storage.Value{storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento, California"), storage.String("1983")}); err != nil {
		t.Fatal(err)
	}
	gid, err := eng.Insert("GENRE", storage.Int(910), storage.String("drama"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := eng.Delete("GENRE", gid); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	eng.AddSynonym("g gerwig", "Greta Gerwig")
	if err := eng.DefineMacro(`DEFINE GG as "Greta Gerwig."`); err != nil {
		t.Fatal(err)
	}
	wantDump := dumpDatabase(eng.Database())
	wantAns, err := eng.QueryString("\"g gerwig\"", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2 := openPersistent(t, dir)
	defer eng2.Close()
	st := eng2.PersistStats()
	if !st.Enabled || !st.Recovery.SnapshotLoaded {
		t.Fatalf("recovery stats = %+v, want snapshot loaded", st)
	}
	if st.Recovery.WALRecordsReplayed != 0 {
		t.Fatalf("Close checkpointed, yet %d WAL records replayed", st.Recovery.WALRecordsReplayed)
	}
	if got := dumpDatabase(eng2.Database()); got != wantDump {
		t.Fatalf("database changed across reopen:\nwant:\n%s\ngot:\n%s", wantDump, got)
	}
	gotAns, err := eng2.QueryString("\"g gerwig\"", Options{})
	if err != nil {
		t.Fatalf("synonym query after reopen: %v", err)
	}
	if dumpDatabase(gotAns.Database) != dumpDatabase(wantAns.Database) {
		t.Fatal("answer database differs across reopen")
	}
	if gotAns.Narrative != wantAns.Narrative {
		t.Fatalf("narrative differs across reopen:\nwant: %s\ngot:  %s", wantAns.Narrative, gotAns.Narrative)
	}
}

// TestReopenWithoutCloseReplaysWAL simulates a crash (no Close, no final
// checkpoint) by cloning the data directory mid-life: recovery must replay
// every logged mutation on top of the generation-1 snapshot.
func TestReopenWithoutCloseReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	if _, err := eng.Insert("DIRECTOR", storage.Int(901), storage.String("Chloe Zhao"), storage.String("Beijing"), storage.String("1982")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("MOVIE", storage.Int(911), storage.String("Nomadland"), storage.Int(2020), storage.Int(901)); err != nil {
		t.Fatal(err)
	}
	eng.AddSynonym("zhao", "Chloe Zhao")
	wantDump := dumpDatabase(eng.Database())

	crashed := copyDataDir(t, dir)
	eng2 := openPersistent(t, crashed)
	defer eng2.Close()
	st := eng2.PersistStats()
	if want := numStandardMacros + 3; st.Recovery.WALRecordsReplayed != want {
		t.Fatalf("replayed %d WAL records, want %d", st.Recovery.WALRecordsReplayed, want)
	}
	if got := dumpDatabase(eng2.Database()); got != wantDump {
		t.Fatalf("recovered database differs:\nwant:\n%s\ngot:\n%s", wantDump, got)
	}
	if _, err := eng2.QueryString("zhao", Options{}); err != nil {
		t.Fatalf("synonym lost in recovery: %v", err)
	}
}

// TestWALAppendFailureRollsBack injects WAL append errors and asserts each
// mutation kind leaves memory exactly as it was — disk and memory may
// never diverge.
func TestWALAppendFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	did, err := eng.Insert("DIRECTOR", storage.Int(902), storage.String("Agnes Varda"), storage.String("Ixelles"), storage.String("1928"))
	if err != nil {
		t.Fatal(err)
	}
	before := dumpDatabase(eng.Database())
	beforeAns, err := eng.QueryString("Varda", Options{})
	if err != nil {
		t.Fatal(err)
	}

	errBoom := errors.New("injected WAL failure")
	defer faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALAppend, faultinject.Rule{Err: errBoom}))()

	if _, err := eng.Insert("DIRECTOR", storage.Int(903), storage.String("X"), storage.String("Y"), storage.String("Z")); !errors.Is(err, errBoom) {
		t.Fatalf("Insert under WAL failure = %v, want injected error", err)
	}
	if err := eng.Update("DIRECTOR", did, []storage.Value{storage.Int(902), storage.String("A. Varda"), storage.String("Ixelles"), storage.String("1928")}); !errors.Is(err, errBoom) {
		t.Fatalf("Update under WAL failure = %v, want injected error", err)
	}
	if ok, err := eng.Delete("DIRECTOR", did); ok || !errors.Is(err, errBoom) {
		t.Fatalf("Delete under WAL failure = %v, %v, want false + injected error", ok, err)
	}
	// The synonym must be dropped, not half-applied, and the lost write
	// must be observable by the caller.
	if err := eng.AddSynonym("cleo", "Agnes Varda"); !errors.Is(err, errBoom) {
		t.Fatalf("AddSynonym under WAL failure = %v, want injected error", err)
	}
	if err := eng.DefineMacro(`DEFINE AV as "Agnes Varda."`); !errors.Is(err, errBoom) {
		t.Fatalf("DefineMacro under WAL failure = %v, want injected error", err)
	}

	if got := dumpDatabase(eng.Database()); got != before {
		t.Fatalf("failed mutations left state behind:\nwant:\n%s\ngot:\n%s", before, got)
	}
	afterAns, err := eng.QueryString("Varda", Options{})
	if err != nil {
		t.Fatalf("query after rolled-back mutations: %v", err)
	}
	if dumpDatabase(afterAns.Database) != dumpDatabase(beforeAns.Database) {
		t.Fatal("rolled-back mutations changed query answers")
	}
	if _, err := eng.QueryString("cleo", Options{}); !errors.Is(err, ErrNoMatches) {
		t.Fatalf("dropped synonym still matches: %v", err)
	}

	// Back to health: the same mutations succeed and survive a reopen.
	faultinject.Deactivate()
	if _, err := eng.Insert("DIRECTOR", storage.Int(903), storage.String("Celine Sciamma"), storage.String("Pontoise"), storage.String("1978")); err != nil {
		t.Fatalf("Insert after recovery from WAL failure: %v", err)
	}
	crashed := copyDataDir(t, dir)
	eng2 := openPersistent(t, crashed)
	defer eng2.Close()
	if got, want := dumpDatabase(eng2.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatalf("post-failure state did not persist:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFailedDeleteKeepsItsPlace: a delete whose WAL append fails changes
// nothing, not even where its tuple sits in its relation, so the live engine
// scans the relation in the order a crash-copy recovery of its directory
// does.
func TestFailedDeleteKeepsItsPlace(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	a, err := eng.Insert("GENRE", storage.Int(1), storage.String("zz-a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("zz-b")); err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("injected WAL failure")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALAppend, faultinject.Rule{Err: errBoom}))
	ok, err := eng.Delete("GENRE", a)
	deactivate()
	if ok || !errors.Is(err, errBoom) {
		t.Fatalf("Delete under WAL failure = %v, %v, want false + injected error", ok, err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	eng2 := openPersistent(t, copyDataDir(t, dir))
	defer eng2.Close()
	if got, want := dumpDatabase(eng2.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatalf("recovered order differs from the live engine's:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestDeleteOfReferencedTupleRefused: on the example movies, PLAY, GENRE and
// CAST rows name MOVIE 3's mid, and no other movie holds it. Deleting it is
// refused with storage.ErrReferenced, logs nothing and changes nothing, and
// the directory then checkpoints, closes and opens: a live engine accepts
// nothing that Open would refuse as a referential-integrity violation.
func TestDeleteOfReferencedTupleRefused(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	before, records := dumpDatabase(eng.Database()), eng.PersistStats().WALRecords
	if ok, err := eng.Delete("MOVIE", 3); ok || !errors.Is(err, storage.ErrReferenced) {
		t.Fatalf("Delete(MOVIE, 3) = %v, %v; want false, storage.ErrReferenced", ok, err)
	}
	if got := eng.PersistStats().WALRecords; got != records {
		t.Fatalf("the refused delete logged: %d WAL records, want %d", got, records)
	}
	if got := dumpDatabase(eng.Database()); got != before {
		t.Fatalf("the refused delete changed the database:\nwant:\n%s\ngot:\n%s", before, got)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2 := openPersistent(t, dir)
	defer eng2.Close()
	if got := dumpDatabase(eng2.Database()); got != before {
		t.Fatalf("reopened database differs:\nwant:\n%s\ngot:\n%s", before, got)
	}
}

// TestWALFsyncFailureNoPhantomRecord injects an fsync error under
// FsyncAlways — the case where the frame bytes hit the file before the
// failure. The engine applies nothing; the WAL layer must
// guarantee the written-but-unsynced record can never become durable
// (truncated tail + poisoned writer), so a reopen of the directory yields
// exactly the pre-failure state instead of replaying a ghost tuple. A
// checkpoint then heals the store into a fresh generation without a
// restart.
func TestWALFsyncFailureNoPhantomRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := quietPersistConfig(dir)
	cfg.Fsync = FsyncAlways
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Insert("DIRECTOR", storage.Int(902), storage.String("Agnes Varda"), storage.String("Ixelles"), storage.String("1928")); err != nil {
		t.Fatal(err)
	}
	before := dumpDatabase(eng.Database())

	errBoom := errors.New("injected fsync failure")
	defer faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALFsync, faultinject.Rule{Err: errBoom}))()
	if _, err := eng.Insert("DIRECTOR", storage.Int(903), storage.String("Phantom"), storage.String("Nowhere"), storage.String("1900")); !errors.Is(err, errBoom) {
		t.Fatalf("Insert under fsync failure = %v, want injected error", err)
	}
	faultinject.Deactivate()

	// Memory as it was ...
	if got := dumpDatabase(eng.Database()); got != before {
		t.Fatalf("failed mutation left memory state behind:\nwant:\n%s\ngot:\n%s", before, got)
	}
	// ... and the WAL is poisoned, not silently diverging: further appends
	// are refused (and not applied) until a checkpoint heals the store.
	if _, err := eng.Insert("DIRECTOR", storage.Int(904), storage.String("After"), storage.String("X"), storage.String("1950")); err == nil {
		t.Fatal("insert succeeded on a poisoned WAL")
	}

	// Reopen-and-compare: the phantom record's bytes must not be on disk,
	// so recovery reproduces the pre-failure state exactly.
	crashed := copyDataDir(t, dir)
	db2, g2, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(db2, g2, quietPersistConfig(crashed))
	if err != nil {
		t.Fatalf("reopen after fsync failure: %v", err)
	}
	if got := dumpDatabase(eng2.Database()); got != before {
		t.Fatalf("phantom record replayed after fsync failure:\nwant:\n%s\ngot:\n%s", before, got)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint heals: a fresh generation gets a healthy writer, durable
	// mutations flow again, and they survive a reopen.
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	if _, err := eng.Insert("DIRECTOR", storage.Int(905), storage.String("Celine Sciamma"), storage.String("Pontoise"), storage.String("1978")); err != nil {
		t.Fatalf("insert after healing checkpoint: %v", err)
	}
	crashed2 := copyDataDir(t, dir)
	db3, g3, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(db3, g3, quietPersistConfig(crashed2))
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer eng3.Close()
	if got, want := dumpDatabase(eng3.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatalf("post-heal state did not persist:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestCheckpointRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("noir")); err != nil {
		t.Fatal(err)
	}
	st := eng.PersistStats()
	if st.Generation != 1 || st.WALRecords != int64(numStandardMacros)+1 {
		t.Fatalf("before checkpoint: %+v", st)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st = eng.PersistStats()
	if st.Generation != 2 || st.WALRecords != 0 || st.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	// The checkpoint is complete on its own: recovery replays zero records.
	crashed := copyDataDir(t, dir)
	eng2 := openPersistent(t, crashed)
	defer eng2.Close()
	if got := eng2.PersistStats().Recovery.WALRecordsReplayed; got != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", got)
	}
	if got, want := dumpDatabase(eng2.Database()), dumpDatabase(eng.Database()); got != want {
		t.Fatal("checkpointed state differs after reopen")
	}
}

func TestCloseRefusesFurtherMutations(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("drama")); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	// Queries keep working on the still-valid in-memory state.
	if _, err := eng.QueryString("Woody Allen", Options{}); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

func TestBackgroundCheckpointBySize(t *testing.T) {
	dir := t.TempDir()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietPersistConfig(dir)
	cfg.CheckpointBytes = 256 // tiny: a few inserts trip it
	eng, err := Open(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 50; i++ {
		if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("genre-padding-padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.PersistStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size-triggered checkpoint never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPersistMetricsExported wires a registry and checks the persistence
// instruments register and tick.
func TestPersistMetricsExported(t *testing.T) {
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	defer eng.Close()
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("drama")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricWALRecords).Load(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricWALRecords, got)
	}
	if got := reg.Counter(MetricCheckpoints).Load(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricCheckpoints, got)
	}
}
