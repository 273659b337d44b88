package precis

import (
	"bytes"
	"net"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/repl"
	"precis/internal/storage"
)

// openCompacting is openPersistent with a chain of at most two elements: the
// first checkpoint writes a delta, the second compacts. The seed is the
// example movies and the given directors.
func openCompacting(t *testing.T, dir string, directors ...[]storage.Value) *Engine {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range directors {
		if _, err := db.Insert("DIRECTOR", d...); err != nil {
			t.Fatal(err)
		}
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	cfg := quietPersistConfig(dir)
	cfg.CompactEvery = 2
	eng, err := Open(db, g, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return eng
}

// assertSameHistory holds e to want's snapshot and index bytes.
func assertSameHistory(t *testing.T, route string, want, e *Engine) {
	t.Helper()
	wantSnap, wantIndex := historyState(t, want)
	snap, index := historyState(t, e)
	if !bytes.Equal(snap, wantSnap) {
		t.Fatalf("%s: snapshot bytes differ from the live engine's\nlive:\n%s\n%s:\n%s",
			route, dumpDatabase(want.Database()), route, dumpDatabase(e.Database()))
	}
	if !bytes.Equal(index, wantIndex) {
		t.Fatalf("%s: index bytes differ from the live engine's", route)
	}
}

// TestKeyCycleSurvivesEveryRoute: keys moved within one checkpoint interval
// so that no order of the final rows can be applied one at a time — a cycle
// (A:3→x, B:7→3, A:x→7) and a swap whose higher id moves first — reach a
// delta checkpoint and then a compaction. Recovering the delta with Open,
// bootstrapping a follower from it, and recovering the compaction with Open
// each give the live engine's state, byte for byte. (Applying a delta's
// upserts one at a time made such a directory unopenable.) The two directors
// direct no movie: moving a referenced key is refused.
func TestKeyCycleSurvivesEveryRoute(t *testing.T) {
	for _, higherFirst := range []bool{false, true} {
		dir := t.TempDir()
		eng := openCompacting(t, dir, director(902, "Agnes Varda"), director(903, "Celine Sciamma"))
		var ids []storage.TupleID
		eng.Database().Relation("DIRECTOR").ScanRows(func(id storage.TupleID, row storage.Row) bool {
			if row.Value(0).AsInt() >= 902 {
				ids = append(ids, id)
			}
			return true
		})
		a, b := ids[0], ids[1]
		if higherFirst {
			a, b = b, a
		}
		key := func(id storage.TupleID) storage.Value {
			tp, _ := eng.Database().Relation("DIRECTOR").Get(id)
			return tp.Values[0]
		}
		setKey := func(id storage.TupleID, v storage.Value) {
			t.Helper()
			tp, _ := eng.Database().Relation("DIRECTOR").Get(id)
			tp.Values[0] = v
			if err := eng.Update("DIRECTOR", id, tp.Values); err != nil {
				t.Fatal(err)
			}
		}
		ka, kb := key(a), key(b)
		setKey(a, storage.Int(9000))
		setKey(b, ka)
		setKey(a, kb)
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if depth := eng.PersistStats().ChainDepth; depth != 2 {
			t.Fatalf("chain depth %d after the first checkpoint, want a delta on the base", depth)
		}

		recovered, err := reopenDir(t, copyDataDir(t, dir))
		if err != nil {
			t.Fatalf("higher first %t: Open of the delta: %v", higherFirst, err)
		}
		assertSameHistory(t, "delta recovery", eng, recovered)
		_ = recovered.Close()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.StartReplication(ln, repl.PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietTestLogger()}); err != nil {
			t.Fatal(err)
		}
		follower := startReplFollower(t, ln.Addr().String())
		waitReplConverged(t, eng, follower, 30*time.Second)
		assertSameHistory(t, "follower bootstrap", eng, follower)
		_ = follower.Close()

		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if depth := eng.PersistStats().ChainDepth; depth != 1 {
			t.Fatalf("chain depth %d after the second checkpoint, want a compaction", depth)
		}
		recovered, err = reopenDir(t, copyDataDir(t, dir))
		if err != nil {
			t.Fatalf("higher first %t: Open of the compaction: %v", higherFirst, err)
		}
		assertSameHistory(t, "compaction recovery", eng, recovered)
		_ = recovered.Close()
		_ = eng.Close()
	}
}

// TestFirstCompactionDerivesIndex: a fresh directory persists its seed index
// beside generation 1, so its first compaction carries that index forward
// instead of indexing the merged state, and says so in PersistStats; the
// carried index is the one the live engine holds, and the next open loads it.
func TestFirstCompactionDerivesIndex(t *testing.T) {
	dir := t.TempDir()
	eng := openCompacting(t, dir)
	defer eng.Close()
	if st := eng.PersistStats(); st.IndexSnapshot != "" || st.LastFullCheckpointBytes != 0 {
		t.Fatalf("before any full checkpoint: index_snapshot %q, last_full_checkpoint_bytes %d", st.IndexSnapshot, st.LastFullCheckpointBytes)
	}
	for i := 0; i < 2; i++ { // a delta, then the compaction
		gone, err := eng.Insert("GENRE", storage.Int(1), storage.String("Derivation"))
		if err == nil {
			_, err = eng.Delete("GENRE", gone)
		}
		if err == nil {
			_, err = eng.Insert("GENRE", storage.Int(int64(i+1)), storage.String("Carried forward"))
		}
		if err == nil {
			err = eng.Checkpoint()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PersistStats()
	if st.ChainDepth != 1 || st.IndexSnapshot != "derived" {
		t.Fatalf("after the first compaction: chain depth %d, index_snapshot %q; want 1, \"derived\"", st.ChainDepth, st.IndexSnapshot)
	}
	if st.LastFullCheckpointMS <= 0 || st.LastFullCheckpointBytes <= 0 {
		t.Fatalf("last full checkpoint: %v ms, %d bytes", st.LastFullCheckpointMS, st.LastFullCheckpointBytes)
	}
	recovered, err := reopenDir(t, copyDataDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !recovered.PersistStats().Recovery.IndexLoaded {
		t.Fatal("the compaction's index was not loaded on reopen")
	}
	assertSameHistory(t, "recovery of the compaction", eng, recovered)
}
