package web

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"precis"
	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// exampleEngineParts builds the example database and annotated graph
// without wrapping them in an engine, for tests that open durable engines.
func exampleEngineParts(t *testing.T) (*storage.Database, *schemagraph.Graph) {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// quietPersist is a fast, silent persistence config for tests.
func quietPersist(dir string) precis.PersistConfig {
	return precis.PersistConfig{
		Dir:             dir,
		Fsync:           precis.FsyncNever,
		CheckpointBytes: -1,
		Logger:          log.New(io.Discard, "", 0),
	}
}

// TestAPIPersistInMemory: on an engine without a data directory the
// endpoint reports enabled=false and zeroed counters — the probe is safe
// to scrape unconditionally.
func TestAPIPersistInMemory(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/persist")
	if code != http.StatusOK {
		t.Fatalf("persist code=%d body=%s", code, body)
	}
	var out struct {
		Enabled    bool   `json:"enabled"`
		Dir        string `json:"dir"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("persist JSON: %v\n%s", err, body)
	}
	if out.Enabled || out.Dir != "" || out.Generation != 0 {
		t.Errorf("in-memory engine reported persistence: %s", body)
	}
}

// TestAPIPersistDurable: with a data directory mounted the endpoint
// reports the live generation and WAL counters, and a mutation through the
// HTTP-facing engine moves them.
func TestAPIPersistDurable(t *testing.T) {
	db, g := exampleEngineParts(t)
	eng, err := precis.Open(db, g, quietPersist(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)

	read := func() (st struct {
		Enabled    bool   `json:"enabled"`
		Fsync      string `json:"fsync"`
		Generation uint64 `json:"generation"`
		WALRecords int64  `json:"wal_records"`
	}) {
		t.Helper()
		code, body := get(t, ts.URL+"/api/persist")
		if code != http.StatusOK {
			t.Fatalf("persist code=%d body=%s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("persist JSON: %v\n%s", err, body)
		}
		return st
	}

	before := read()
	if !before.Enabled || before.Generation == 0 {
		t.Fatalf("durable engine not reported as enabled: %+v", before)
	}
	eng.AddSynonym("wooody", "Woody Allen")
	after := read()
	if after.WALRecords != before.WALRecords+1 {
		t.Errorf("wal_records %d -> %d, want +1", before.WALRecords, after.WALRecords)
	}
}

// TestAPIPersistChainAndIndexFields: after a delta checkpoint the endpoint
// reports the chain depth, the lock-pause of the last checkpoint, and the
// bytes written by kind; after a logged write, Close (a second delta) and a
// reopen it
// reports the chain recovery applied, the empty log tail, and whether the
// inverted index was loaded from its persisted snapshot.
func TestAPIPersistChainAndIndexFields(t *testing.T) {
	dir := t.TempDir()
	db, g := exampleEngineParts(t)
	eng, err := precis.Open(db, g, quietPersist(dir))
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			_ = eng.Close()
		}
	})
	ts := httptest.NewServer(NewServer(eng).Handler())

	read := func(url string) (st struct {
		ChainDepth int     `json:"chain_depth"`
		PauseMS    float64 `json:"last_checkpoint_pause_ms"`
		DeltaBytes int64   `json:"delta_bytes_written"`
		FullBytes  int64   `json:"full_bytes_written"`
		Recovery   struct {
			ChainDepth    int  `json:"chain_depth"`
			DeltasApplied int  `json:"deltas_applied"`
			WALReplayed   int  `json:"wal_records_replayed"`
			IndexLoaded   bool `json:"index_loaded"`
		} `json:"recovery"`
	}) {
		t.Helper()
		code, body := get(t, url+"/api/persist")
		if code != http.StatusOK {
			t.Fatalf("persist code=%d body=%s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("persist JSON: %v\n%s", err, body)
		}
		return st
	}

	eng.AddSynonym("wooody", "Woody Allen")
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := read(ts.URL)
	if st.ChainDepth != 2 {
		t.Errorf("chain_depth = %d after one delta checkpoint, want 2", st.ChainDepth)
	}
	if st.PauseMS <= 0 {
		t.Errorf("last_checkpoint_pause_ms = %v, want > 0", st.PauseMS)
	}
	if st.DeltaBytes <= 0 {
		t.Errorf("delta_bytes_written = %d, want > 0", st.DeltaBytes)
	}
	ts.Close()
	// A logged write, so Close has something to checkpoint: a second delta,
	// the chain not flattened.
	if err := eng.AddSynonym("wooodie", "Woody Allen"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true

	db2, g2 := exampleEngineParts(t)
	eng2, err := precis.Open(db2, g2, quietPersist(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng2.Close() })
	ts2 := httptest.NewServer(NewServer(eng2).Handler())
	t.Cleanup(ts2.Close)
	st2 := read(ts2.URL)
	if !st2.Recovery.IndexLoaded {
		t.Error("recovery.index_loaded = false: the seed's persisted index, carried through the deltas, was not loaded")
	}
	if st2.Recovery.ChainDepth != 3 || st2.Recovery.DeltasApplied != 2 {
		t.Errorf("recovery.chain_depth = %d, deltas_applied = %d after a delta and Close's delta, want 3 and 2",
			st2.Recovery.ChainDepth, st2.Recovery.DeltasApplied)
	}
	if st2.Recovery.WALReplayed != 0 {
		t.Errorf("recovery.wal_records_replayed = %d after Close, want 0", st2.Recovery.WALReplayed)
	}
	if st2.FullBytes != 0 {
		t.Errorf("full_bytes_written = %d on a fresh open, want 0", st2.FullBytes)
	}
}
