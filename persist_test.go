package precis

// Persistence suite: the engine-level durability layer (Open, WAL-logged
// mutations, Checkpoint, Close, recovery) must round-trip every piece of
// engine state — tuples with identities, foreign keys, synonyms, narrative
// macros — and a failed WAL append must leave memory exactly as it was.

import (
	"bytes"
	"errors"
	"io"
	"log"
	"maps"
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
	writeDataDir(t, dst, readDataDir(t, src))
	return dst
}

// readDataDir returns a data directory's files by name.
func readDataDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeDataDir writes files into dir.
func writeDataDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tortureDir is the one data directory a byte torture damages in place. A
// case replaces or removes one file, opens the directory and checks what it
// got; the directory then gets its seed files back — the files the case made
// deleted, the ones it changed or removed rewritten — and the restore is
// checked before the next case. A torture's time goes to its opens, not to a
// fresh copy of the directory per case.
type tortureDir struct {
	t     *testing.T
	dir   string
	seed  map[string][]byte
	cases int
}

func newTortureDir(t *testing.T, seed map[string][]byte) *tortureDir {
	t.Helper()
	d := &tortureDir{t: t, dir: t.TempDir(), seed: seed}
	writeDataDir(t, d.dir, seed)
	return d
}

// run writes data as the file name, runs check on the directory and
// restores the seed.
func (d *tortureDir) run(name string, data []byte, check func(dir string)) {
	d.t.Helper()
	d.overwrite(name, data)
	d.finish(name, check)
}

// overwrite makes the file name hold data. It writes over the old bytes and
// then cuts the file to length, where a truncating open would free the
// file's blocks only to allocate them again.
func (d *tortureDir) overwrite(name string, data []byte) {
	d.t.Helper()
	f, err := os.OpenFile(filepath.Join(d.dir, name), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		d.t.Fatal(err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Truncate(int64(len(data)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		d.t.Fatal(err)
	}
}

// runWithout removes the file name, runs check on the directory and
// restores the seed.
func (d *tortureDir) runWithout(name string, check func(dir string)) {
	d.t.Helper()
	if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
		d.t.Fatal(err)
	}
	d.finish(name, check)
}

// finish runs check on the directory, whose file damaged the case replaced
// or removed, and restores the seed: it deletes the files the case made and
// rewrites the damaged file and every other seed file that no longer reads
// as the seed's. Then it checks the restore: the directory lists exactly the
// seed's files, and each file rewritten reads back as the seed's.
func (d *tortureDir) finish(damaged string, check func(dir string)) {
	d.t.Helper()
	check(d.dir)
	d.cases++
	list := func() []os.DirEntry {
		entries, err := os.ReadDir(d.dir)
		if err != nil {
			d.t.Fatal(err)
		}
		return entries
	}
	for _, e := range list() {
		if _, ok := d.seed[e.Name()]; !ok {
			if err := os.RemoveAll(filepath.Join(d.dir, e.Name())); err != nil {
				d.t.Fatal(err)
			}
		}
	}
	rewritten := map[string][]byte{}
	for name, raw := range d.seed {
		if name != damaged {
			if got, err := os.ReadFile(filepath.Join(d.dir, name)); err == nil && bytes.Equal(got, raw) {
				continue
			}
		}
		rewritten[name] = raw
		d.overwrite(name, raw)
	}
	for _, e := range list() {
		if _, ok := d.seed[e.Name()]; !ok {
			d.t.Fatalf("case %d: %s still holds %s after the restore", d.cases, d.dir, e.Name())
		}
	}
	for name, raw := range rewritten {
		if got, err := os.ReadFile(filepath.Join(d.dir, name)); err != nil || !bytes.Equal(got, raw) {
			d.t.Fatalf("case %d: %s does not read back as its seed after the restore (%v)", d.cases, name, err)
		}
	}
}

// ran fails the torture unless it ran exactly want cases.
func (d *tortureDir) ran(want int) {
	d.t.Helper()
	if d.cases != want {
		d.t.Fatalf("the torture ran %d cases, want %d", d.cases, want)
	}
}

// strided counts the offsets 0, step, 2·step, … below n: the cases of a
// loop over n offsets at that stride.
func strided(n, step int) int { return (n + step - 1) / step }

// tortureStep is the tortures' stride: every byte, or every 13th under -short.
func tortureStep() int {
	if testing.Short() {
		return 13
	}
	return 1
}

// flipped returns a copy of raw with the mask bits of byte off flipped.
func flipped(raw []byte, off int, mask byte) []byte {
	mut := bytes.Clone(raw)
	mut[off] ^= mask
	return mut
}

// TestTortureDir holds the tortures' helper to its promise: whatever a case
// makes, changes or removes, the directory holds its seed files again after
// it, each case sees its own damage, and ran counts the cases.
func TestTortureDir(t *testing.T) {
	seed := map[string][]byte{"a.snap": []byte("snapshot"), "b.log": []byte("log")}
	d := newTortureDir(t, seed)
	d.run("a.snap", []byte("damaged"), func(dir string) {
		if got := readDataDir(t, dir)["a.snap"]; string(got) != "damaged" {
			t.Fatalf("the case saw %q, not its damage", got)
		}
		// What a checkpoint does: rotate the log, add a file, drop one.
		writeDataDir(t, dir, map[string][]byte{"b.log": []byte("log, appended"), "c.dlt": []byte("delta")})
		if err := os.Remove(filepath.Join(dir, "a.snap")); err != nil {
			t.Fatal(err)
		}
	})
	d.runWithout("b.log", func(dir string) {
		if _, ok := readDataDir(t, dir)["b.log"]; ok {
			t.Fatal("the removed file is still there")
		}
	})
	if got := readDataDir(t, d.dir); !maps.EqualFunc(got, seed, bytes.Equal) {
		t.Fatalf("after two cases the directory holds %q, want %q", got, seed)
	}
	d.ran(2)
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
