package precis

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/wal"
)

// edgeMovies is the example database with three ids left to allocate.
func edgeMovies(t *testing.T) (*storage.Database, *schemagraph.Graph) {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	db.SetNextTupleID(storage.MaxTupleID - 2)
	return db, g
}

// residentState renders everything a refused insert could have touched: every
// partition's tuples, the layout counts of storage, hash indexes and inverted
// index, and how much has been logged.
func residentState(e *Engine) string {
	var sb strings.Builder
	_ = e.backend.each(func(n *node) error {
		sb.WriteString(dumpDatabase(n.db))
		return nil
	})
	ps := e.PersistStats()
	fmt.Fprintf(&sb, "%+v wal %d/%d", e.LayoutStats(), ps.WALRecords, ps.WALBytes)
	return sb.String()
}

// TestIDSpaceBoundary: with three ids left, three inserts succeed — the last
// at storage.MaxTupleID, found again through the inverted index and the join
// index — and the fourth is refused with storage.ErrOutOfIDs, leaving
// relation, indexes, inverted index and WAL as they were; a reopen recovers
// the three and refuses again. On one durable engine and on four
// hash-partitioned (strided) durable shards.
func TestIDSpaceBoundary(t *testing.T) {
	shapes := map[string]func(*storage.Database, *schemagraph.Graph, string) (*Engine, error){
		"single": func(db *storage.Database, g *schemagraph.Graph, dir string) (*Engine, error) {
			return Open(db, g, quietPersistConfig(dir))
		},
		"4 shards": func(db *storage.Database, g *schemagraph.Graph, dir string) (*Engine, error) {
			return NewSharded(db, g, ShardedConfig{Shards: 4, Persist: quietPersistConfig(dir)})
		},
	}
	for name, open := range shapes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, g := edgeMovies(t)
			eng, err := open(db, g, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { eng.Close() }()
			did, err := eng.Insert("DIRECTOR", storage.Int(900), storage.String("Lucrecia Martel"), storage.String("Salta"), storage.String("1966"))
			if err != nil || did != storage.MaxTupleID-2 {
				t.Fatalf("first insert: id %d, %v", did, err)
			}
			for i, title := range []string{"Zama", "La Cienaga"} {
				id, err := eng.Insert("MOVIE", storage.Int(int64(900+i)), storage.String(title), storage.Int(2001), storage.Int(900))
				if err != nil || id != storage.MaxTupleID-1+storage.TupleID(i) {
					t.Fatalf("insert of %s: id %d, %v", title, id, err)
				}
			}
			lastOnes := func(e *Engine) {
				t.Helper()
				ans, err := e.QueryString("Cienaga", Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := getTuple(ans.Database.Relation("MOVIE"), storage.MaxTupleID); !ok {
					t.Fatalf("the tuple at MaxTupleID is not in the answer for its title: %s", dumpDatabase(ans.Database))
				}
				if ans, err = e.QueryString("Martel", Options{}); err != nil || ans.Database.Relation("MOVIE").Len() != 2 {
					t.Fatalf("the join to the two last ids: %v, %v", ans, err)
				}
			}
			lastOnes(eng)
			refused := func(e *Engine) {
				t.Helper()
				before := residentState(e)
				id, err := e.Insert("MOVIE", storage.Int(999), storage.String("Zama"), storage.Int(2017), storage.Int(900))
				if !errors.Is(err, storage.ErrOutOfIDs) || id != 0 {
					t.Fatalf("fourth insert: id %d, error %v, want storage.ErrOutOfIDs", id, err)
				}
				if after := residentState(e); after != before {
					t.Fatalf("the refused insert left a trace:\n%s\nwas:\n%s", after, before)
				}
			}
			refused(eng)
			want := residentState(eng)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			seed, g2 := edgeMovies(t)
			if eng, err = open(seed, g2, dir); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			// The close checkpointed: the log is empty again, the rest is as it was.
			if got := residentState(eng); got[:strings.LastIndex(got, " wal ")] != want[:strings.LastIndex(want, " wal ")] {
				t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
			}
			lastOnes(eng)
			refused(eng)
		})
	}
}

// TestFollowerRefusesIDAboveCap: a replication stream carrying an id above
// storage.MaxTupleID — in its bootstrap snapshot or in a record — fails the
// apply with storage.ErrOutOfIDs, naming the record, and applies nothing.
func TestFollowerRefusesIDAboveCap(t *testing.T) {
	db, g := edgeMovies(t)
	raw, err := wal.EncodeSnapshot(&wal.SnapshotData{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	r := &replicaState{graph: g, log: log.New(io.Discard, "", 0), done: done, ready: make(chan struct{}), cancel: func() {}}
	if err := r.onSnapshot(1, raw); err != nil {
		t.Fatal(err)
	}
	defer r.eng.Close()

	// The payload comes off a primary's log: Append writes what it is given.
	dir := t.TempDir()
	store, _, err := wal.Open(dir, wal.Config{Fsync: wal.FsyncNever, Logger: r.log})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Initialize(&wal.SnapshotData{DB: db}); err != nil {
		t.Fatal(err)
	}
	vals := []storage.Value{storage.Int(900), storage.String("Lucrecia Martel"), storage.String("Salta"), storage.String("1966")}
	if err := store.Append(wal.Record{Op: wal.OpInsert, Rel: "DIRECTOR", ID: storage.MaxTupleID + 1, Values: vals}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(logs) != 1 {
		t.Fatalf("logs: %v", logs)
	}
	f, err := os.Open(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload, err := wal.NewFrameReader(f, logs[0]).Next()
	if err != nil {
		t.Fatal(err)
	}

	before := residentState(r.eng)
	err = r.onRecord(1, 0, payload)
	if !errors.Is(err, storage.ErrOutOfIDs) || !strings.Contains(err.Error(), "record (1,0)") {
		t.Fatalf("streamed record above the cap: %v", err)
	}
	if after := residentState(r.eng); after != before {
		t.Fatalf("the refused record left a trace:\n%s\nwas:\n%s", after, before)
	}
	if gen, records := r.position(); gen != 1 || records != 0 {
		t.Fatalf("position advanced to (%d,%d)", gen, records)
	}
}
