package precis

// Delta-chain crash torture: the scripted mutation workload from
// persist_crash_test.go runs with incremental checkpoints sprinkled in, so
// the data directory holds a chain — base snapshot + delta* + WAL tail —
// instead of a single snapshot. Recovery from every chain depth must be
// byte-identical (dump, answers, narrative) to the never-crashed reference;
// damage to any chain file must either heal byte-identically or fail with
// an attributed CorruptionError; damage to the persisted inverted index
// must never fail an open — it silently falls back to a rebuild.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/wal"
)

// deltaCkptAfter lists the mutation indices after which the chain tests
// take an incremental checkpoint (first d of them for depth d).
var deltaCkptAfter = []int{2, 5, 7}

// buildChainDir runs the full crash script with the first nCkpts scripted
// checkpoints and returns a crash-point copy of the data directory (taken
// before Close, whose final checkpoint would extend or compact the chain).
func buildChainDir(t *testing.T, nCkpts int) string {
	t.Helper()
	dir := t.TempDir()
	eng := openPersistent(t, dir)
	done := 0
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(eng, i); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if done < nCkpts && deltaCkptAfter[done] == i {
			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after mutation %d: %v", i, err)
			}
			done++
		}
	}
	if done != nCkpts {
		t.Fatalf("took %d checkpoints, wanted %d", done, nCkpts)
	}
	if got := eng.PersistStats().ChainDepth; got != 1+nCkpts {
		t.Fatalf("live chain depth %d after %d delta checkpoints, want %d", got, nCkpts, 1+nCkpts)
	}
	crashed := copyDataDir(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return crashed
}

// reopenDir recovers a data directory with the standard quiet config.
func reopenDir(t *testing.T, dir string) (*Engine, error) {
	t.Helper()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	return Open(db, g, quietPersistConfig(dir))
}

// TestDeltaChainRecoveryDepths recovers the same workload from chains of
// depth 1 (full snapshot only) through 4 (base + three deltas). Every
// recovery must be state-, answer-, and narrative-identical to the
// never-crashed reference engine.
func TestDeltaChainRecoveryDepths(t *testing.T) {
	want := captureRef(t, newReferenceEngine(t, numCrashMutations))
	for d := 0; d <= len(deltaCkptAfter); d++ {
		crashed := buildChainDir(t, d)
		eng, err := reopenDir(t, crashed)
		if err != nil {
			t.Fatalf("depth %d: recovery failed: %v", 1+d, err)
		}
		st := eng.PersistStats()
		if st.Recovery.ChainDepth != 1+d {
			t.Fatalf("recovered chain depth %d, want %d", st.Recovery.ChainDepth, 1+d)
		}
		if st.Recovery.DeltasApplied != d {
			t.Fatalf("recovery applied %d deltas, want %d", st.Recovery.DeltasApplied, d)
		}
		got := captureRef(t, eng)
		if got.dump != want.dump {
			t.Fatalf("depth %d: recovered database differs from reference:\nwant:\n%s\ngot:\n%s", 1+d, want.dump, got.dump)
		}
		if got.ansDump != want.ansDump {
			t.Fatalf("depth %d: recovered answer differs from reference", 1+d)
		}
		if got.narrative != want.narrative {
			t.Fatalf("depth %d: narrative differs:\nwant: %s\ngot:  %s", 1+d, want.narrative, got.narrative)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// chainFiles returns the base snapshot and the delta files (ascending) of a
// crashed chain directory.
func chainFiles(t *testing.T, dir string) (snap string, deltas []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".snap":
			snap = e.Name()
		case ".dlt":
			deltas = append(deltas, e.Name())
		}
	}
	if snap == "" {
		t.Fatal("chain dir has no base snapshot")
	}
	return snap, deltas
}

// tortureChainFile damages one of a crashed chain dir's files at every
// strided offset, both by bit flip and by truncation, and requires recovery
// to fail every time. wantCorruption additionally requires the error to be
// an attributed CorruptionError (delta damage is always detected as such; a
// damaged base snapshot may also surface as "no loadable snapshot").
func tortureChainFile(t *testing.T, seed map[string][]byte, name string, wantCorruption bool) {
	t.Helper()
	raw, step := seed[name], tortureStep()
	check := func(mode string, off int) func(dir string) {
		return func(dir string) {
			t.Helper()
			_, err := reopenDir(t, dir)
			if err == nil {
				t.Fatalf("%s of %s at offset %d was silently accepted", mode, name, off)
			}
			var ce *wal.CorruptionError
			if wantCorruption && !errors.As(err, &ce) {
				t.Fatalf("%s of %s at offset %d: error is not a CorruptionError: %v", mode, name, off, err)
			}
		}
	}
	d := newTortureDir(t, seed)
	for off := 0; off < len(raw); off += step {
		d.run(name, flipped(raw, off, 0x08), check("bit flip", off))
	}
	for cut := 0; cut < len(raw); cut += step {
		d.run(name, raw[:cut], check("truncation", cut))
	}
	d.ran(2 * strided(len(raw), step))
}

// TestDeltaChainTortureEveryByte damages every byte of every chain file —
// the base snapshot and both deltas of a depth-3 chain. Committed deltas
// are only on disk once their covering logs are gone, so any damage must be
// a hard, attributed failure: dropping a delta would silently lose data.
func TestDeltaChainTortureEveryByte(t *testing.T) {
	src := buildChainDir(t, 2)
	snap, deltas := chainFiles(t, src)
	if len(deltas) != 2 {
		t.Fatalf("chain dir holds %d deltas, want 2", len(deltas))
	}
	// Sanity: the undamaged copy recovers.
	eng, err := reopenDir(t, copyDataDir(t, src))
	if err != nil {
		t.Fatalf("undamaged chain failed to recover: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	seed := readDataDir(t, src)
	t.Run("base", func(t *testing.T) { tortureChainFile(t, seed, snap, false) })
	for _, d := range deltas {
		t.Run(d, func(t *testing.T) { tortureChainFile(t, seed, d, true) })
	}
}

// buildIndexedDir produces a crash-point directory whose base is a full
// checkpoint with a persisted inverted index, plus a WAL tail of two more
// mutations, and returns it with the index file's name.
func buildIndexedDir(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	cfg := quietPersistConfig(dir)
	cfg.CompactEvery = -1 // every checkpoint is a full one (with index)
	eng, err := Open(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(eng, i); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if i == 7 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("full checkpoint: %v", err)
			}
		}
	}
	crashed := copyDataDir(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	var indexName string
	entries, err := os.ReadDir(crashed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pidx") {
			indexName = e.Name()
		}
	}
	if indexName == "" {
		t.Fatal("full checkpoint did not persist an index snapshot")
	}
	return crashed, indexName
}

// TestPersistedIndexRecovery: an untouched directory loads the persisted
// index (no rebuild) and answers identically to the reference.
func TestPersistedIndexRecovery(t *testing.T) {
	src, _ := buildIndexedDir(t)
	want := captureRef(t, newReferenceEngine(t, numCrashMutations))
	eng, err := reopenDir(t, copyDataDir(t, src))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.PersistStats().Recovery.IndexLoaded {
		t.Fatal("persisted index was not loaded on recovery")
	}
	got := captureRef(t, eng)
	if got.dump != want.dump || got.ansDump != want.ansDump || got.narrative != want.narrative {
		t.Fatal("recovery with loaded index differs from reference")
	}
}

// expectIndexFallback opens dir and requires a successful recovery that
// REBUILT the index (IndexLoaded false), answers identically and closes.
func expectIndexFallback(t *testing.T, dir, mode string, want refSnapshot) {
	t.Helper()
	eng, err := reopenDir(t, dir)
	if err != nil {
		t.Fatalf("%s: index damage failed the open (must fall back): %v", mode, err)
	}
	loaded, got := eng.PersistStats().Recovery.IndexLoaded, captureRef(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatalf("%s: close after the fallback: %v", mode, err)
	}
	if loaded {
		t.Fatalf("%s: damaged index reported as loaded", mode)
	}
	if got != want {
		t.Fatalf("%s: fallback recovery differs from reference", mode)
	}
}

// TestPersistedIndexTortureEveryByte damages every byte of the persisted
// index — flips and truncations — plus a stale generation stamp and a
// missing file. Every case must open successfully, silently rebuilding;
// index damage is never allowed to fail recovery or corrupt answers.
func TestPersistedIndexTortureEveryByte(t *testing.T) {
	src, indexName := buildIndexedDir(t)
	want := captureRef(t, newReferenceEngine(t, numCrashMutations))
	seed := readDataDir(t, src)
	raw, step := seed[indexName], tortureStep()
	fallback := func(mode string) func(dir string) {
		return func(dir string) { expectIndexFallback(t, dir, mode, want) }
	}
	d := newTortureDir(t, seed)
	for off := 0; off < len(raw); off += step {
		d.run(indexName, flipped(raw, off, 0x20), fallback("bit flip"))
	}
	for cut := 0; cut < len(raw); cut += step * 4 {
		d.run(indexName, raw[:cut], fallback("truncation"))
	}
	// A structurally valid index stamped with the wrong generation is
	// stale, not corrupt — same silent fallback.
	d.run(indexName, (&invidx.Index{}).EncodeSnapshot(999), fallback("stale generation"))
	// A missing index file (pre-upgrade directory) rebuilds too.
	d.runWithout(indexName, fallback("missing file"))
	d.ran(strided(len(raw), step) + strided(len(raw), 4*step) + 2)
}
