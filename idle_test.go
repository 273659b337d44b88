package precis

// An idle engine writes nothing: a checkpoint with nothing logged since the
// last one — manual, size, timer or Close's — rotates no log, writes no file
// and counts no checkpoint (wal.Store.Idle).

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/storage"
)

// assertDirIs fails unless dir holds exactly want's files, byte for byte.
func assertDirIs(t *testing.T, dir string, want map[string][]byte, when string) {
	t.Helper()
	got := readDataDir(t, dir)
	if !maps.EqualFunc(got, want, bytes.Equal) {
		names := func(files map[string][]byte) []string {
			var out []string
			for name := range files {
				out = append(out, name)
			}
			sort.Strings(out)
			return out
		}
		t.Fatalf("%s: the directory changed\nwas: %v\nnow: %v", when, names(want), names(got))
	}
}

// TestIdleCheckpointWritesNothing: open, Checkpoint and Close of a directory,
// with nothing logged in between, leave it byte for byte as it was and count
// no checkpoint, however often they repeat. One logged write makes the next
// checkpoint rotate once; a second checkpoint right after it writes nothing.
func TestIdleCheckpointWritesNothing(t *testing.T) {
	dir := t.TempDir()
	// openPersistent logs its macros, so this Close checkpoints them.
	if err := openPersistent(t, dir).Close(); err != nil {
		t.Fatal(err)
	}
	want := readDataDir(t, dir)
	for cycle := 0; cycle < 3; cycle++ {
		eng, err := reopenDir(t, dir) // defines no macro: logs nothing
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		eng.Instrument(reg)
		before := eng.PersistStats()
		if err := eng.Checkpoint(); err != nil {
			t.Fatalf("cycle %d: idle Checkpoint: %v", cycle, err)
		}
		st := eng.PersistStats()
		if st.Checkpoints != 0 || st.Generation != before.Generation || st.ChainDepth != before.ChainDepth ||
			!st.LastCheckpoint.Equal(before.LastCheckpoint) || reg.Counter(MetricCheckpoints).Load() != 0 {
			t.Fatalf("cycle %d: an idle Checkpoint moved the stats: %+v, was %+v", cycle, st, before)
		}
		assertDirIs(t, dir, want, fmt.Sprintf("cycle %d, after Checkpoint", cycle))
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		assertDirIs(t, dir, want, fmt.Sprintf("cycle %d, after Close", cycle))
	}

	eng, err := reopenDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.PersistStats()
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("idle no more")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	once := eng.PersistStats()
	if once.Checkpoints != 1 || once.Generation != before.Generation+1 {
		t.Fatalf("after one write and a Checkpoint: %d checkpoint(s), generation %d; want 1, %d",
			once.Checkpoints, once.Generation, before.Generation+1)
	}
	files := readDataDir(t, dir)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := eng.PersistStats(); st.Checkpoints != 1 || st.Generation != once.Generation {
		t.Fatalf("a second Checkpoint with nothing logged: %d checkpoint(s), generation %d; want 1, %d",
			st.Checkpoints, st.Generation, once.Generation)
	}
	assertDirIs(t, dir, files, "a second Checkpoint")
}

// TestCheckpointTimerSkipsIdle: several CheckpointEvery periods with no write
// create no file and count no checkpoint; one write makes the timer
// checkpoint once, and the periods after it are idle again.
func TestCheckpointTimerSkipsIdle(t *testing.T) {
	const every = 20 * time.Millisecond
	dir := t.TempDir()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietPersistConfig(dir)
	cfg.CheckpointEvery = every
	eng, err := Open(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	idle := func(when string) {
		t.Helper()
		files := readDataDir(t, dir)
		checkpoints := eng.PersistStats().Checkpoints
		time.Sleep(6 * every)
		if st := eng.PersistStats(); st.Checkpoints != checkpoints {
			t.Fatalf("%s: %d timer checkpoint(s) with nothing logged", when, st.Checkpoints-checkpoints)
		}
		assertDirIs(t, dir, files, when)
	}
	idle("before any write")
	if _, err := eng.Insert("GENRE", storage.Int(1), storage.String("timed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.PersistStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the timer never checkpointed the write")
		}
		time.Sleep(every / 4)
	}
	idle("after the write's checkpoint")
	if st := eng.PersistStats(); st.Checkpoints != 1 || st.Generation != 2 {
		t.Fatalf("one write: %d timer checkpoint(s), generation %d; want 1, 2", st.Checkpoints, st.Generation)
	}
}

// TestReplFollowerCrossesIdleCheckpoints: two checkpoints with no write
// between them, then a write. The second checkpoint rotates nothing, so
// plain and durable followers alike stream the write from the one rotation
// they crossed, with no snapshot transfer after their bootstrap. (An empty
// generation between the two made each refuse the write's record and
// re-bootstrap.)
func TestReplFollowerCrossesIdleCheckpoints(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			primary, addr := startReplPrimary(t)
			defer primary.Close()
			var follower *Engine
			var err error
			if durable {
				follower, err = openDurableFollowerOf(addr, t.TempDir())
			} else {
				follower, err = openFollowerOf(addr)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			waitReplConverged(t, primary, follower, 10*time.Second)
			for i := 0; i < 2; i++ {
				if err := primary.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("after two checkpoints")); err != nil {
				t.Fatal(err)
			}
			waitReplConverged(t, primary, follower, 10*time.Second)
			if fs := follower.ReplStats().Follower; fs.Snapshots != 1 {
				t.Fatalf("follower took %d snapshot transfer(s); want the bootstrap only", fs.Snapshots)
			}
			if st := primary.PersistStats(); st.Checkpoints != 1 || st.Generation != 2 {
				t.Fatalf("two checkpoints with one write before them: %d checkpoint(s), generation %d; want 1, 2", st.Checkpoints, st.Generation)
			}
			assertReplicaIdentical(t, primary, follower, "after two checkpoints and a write")
		})
	}
}

// TestIdleMeansNothingDirty: whenever the store says a checkpoint has nothing
// to write, the database has nothing dirty — through writes of every kind,
// delta checkpoints, compactions, a reopen that replays records, a checkpoint
// that fails after its rotation, and the heal of a poisoned log. Each check
// captures the dirty set and merges it back.
func TestIdleMeansNothingDirty(t *testing.T) {
	dir := t.TempDir()
	cfg := quietPersistConfig(dir)
	cfg.CompactEvery = 3
	open := func() *Engine {
		t.Helper()
		db, g, err := dataset.ExampleMovies()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Open(db, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	idle := 0
	check := func(when string) {
		t.Helper()
		eng.mu.Lock()
		defer eng.mu.Unlock()
		n := eng.backend.single()
		if !n.store.Idle() {
			return
		}
		idle++
		ds := n.db.CaptureDirty()
		n.db.MergeDirty(ds)
		if ds != nil && (ds.Tuples() != 0 || ds.Mutations != 0) {
			t.Fatalf("%s: the store is idle, but %d tuple(s) and %d mutation(s) are dirty", when, ds.Tuples(), ds.Mutations)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(i int) {
		t.Helper()
		id, err := eng.Insert("GENRE", storage.Int(1), storage.String(fmt.Sprint("dirty ", i)))
		must(err)
		check(fmt.Sprintf("insert %d", i))
		must(eng.Update("GENRE", id, []storage.Value{storage.Int(1), storage.String(fmt.Sprint("dirtier ", i))}))
		check(fmt.Sprintf("update %d", i))
		if i%2 == 1 {
			_, err = eng.Delete("GENRE", id)
			must(err)
			check(fmt.Sprintf("delete %d", i))
		}
		must(eng.AddSynonym(fmt.Sprint("dirt", i), "Woody Allen"))
		check(fmt.Sprintf("synonym %d", i))
	}
	checkpoint := func(when string) {
		t.Helper()
		must(eng.Checkpoint())
		check(when)
	}

	check("a fresh directory")
	for i := 0; i < 4; i++ { // deltas and a compaction
		write(i)
		checkpoint(fmt.Sprintf("checkpoint %d", i))
		checkpoint(fmt.Sprintf("checkpoint %d again", i))
	}
	write(4)
	must(eng.Close())
	eng = open()
	check("a reopen with nothing to replay")
	write(5)
	must(eng.Sync())
	crashed := copyDataDir(t, dir)
	must(eng.Close())
	dir = crashed
	cfg.Dir = dir
	eng = open()
	check("a reopen that replays records")
	checkpoint("the checkpoint of the replayed records")

	// A checkpoint that fails after its rotation: directories stand where
	// its delta or its snapshot would go.
	write(6)
	next := eng.PersistStats().Generation + 1
	blockers := []string{filepath.Join(dir, fmt.Sprintf("delta-%016x.dlt", next)), filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", next))}
	for _, b := range blockers {
		must(os.MkdirAll(filepath.Join(b, "x"), 0o755))
	}
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("a checkpoint that cannot write its file succeeded")
	}
	check("a checkpoint that failed after its rotation")
	for _, b := range blockers {
		must(os.RemoveAll(b))
	}
	checkpoint("the retried checkpoint")

	// A poisoned log: a failed fsync truncates it back to its last synced
	// record, none here; only the checkpoint's Supersede heals it.
	write(7)
	errFsync := errors.New("idle: injected fsync failure")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteWALFsync, faultinject.Rule{Err: errFsync, Limit: 1}))
	err := eng.Sync()
	deactivate()
	if !errors.Is(err, errFsync) {
		t.Fatalf("Sync over an injected fsync failure: %v", err)
	}
	check("a poisoned log")
	checkpoint("the heal of the poisoned log")
	must(eng.Close())
	if idle < 10 {
		t.Fatalf("the store was idle at %d check(s); the walk should reach more", idle)
	}
}
