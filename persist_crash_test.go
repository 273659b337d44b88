package precis

// Crash-torture suite: a scripted mutation workload runs on a persistent
// engine, then the data directory is "crashed" by truncating the WAL at
// every byte offset. Every recovery must yield a state identical — tuple
// IDs, scan order, answers, narrative — to an in-memory reference engine
// that applied exactly the mutations whose records survived whole. A
// truncation may lose a clean log suffix, never corrupt state, and a
// flipped bit anywhere must be detected and named, not absorbed.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"precis/internal/storage"
	"precis/internal/wal"
)

// crashMutation applies scripted mutation i to an engine. The script
// covers every WAL-logged mutation kind; its effects are deterministic, so
// two engines that applied the same prefix are state-identical.
func crashMutation(e *Engine, i int) error {
	switch i {
	case 0:
		_, err := e.Insert("DIRECTOR", storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento"), storage.String("1983"))
		return err
	case 1:
		_, err := e.Insert("MOVIE", storage.Int(910), storage.String("Lady Bird"), storage.Int(2017), storage.Int(900))
		return err
	case 2:
		_, err := e.Insert("GENRE", storage.Int(910), storage.String("Drama"))
		return err
	case 3:
		// Update the director row in place (ID 0 of this script's inserts is
		// deterministic: the engine allocates sequentially from a fixed seed
		// database, so recompute it from the data).
		id, ok := findDirector(e, "Greta Gerwig")
		if !ok {
			return fmt.Errorf("script: director not found for update")
		}
		return e.Update("DIRECTOR", id, []storage.Value{storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento, California"), storage.String("1983")})
	case 4:
		_, err := e.Insert("GENRE", storage.Int(910), storage.String("Coming-of-age"))
		return err
	case 5:
		id, ok := findGenre(e, "Coming-of-age")
		if !ok {
			return fmt.Errorf("script: genre not found for delete")
		}
		deleted, err := e.Delete("GENRE", id)
		if err == nil && !deleted {
			return fmt.Errorf("script: genre delete was a no-op")
		}
		return err
	case 6:
		e.AddSynonym("ladybird", "Lady Bird")
		return nil
	case 7:
		return e.DefineMacro(`DEFINE CRASH_TEST as "macro survived."`)
	case 8:
		_, err := e.Insert("MOVIE", storage.Int(911), storage.String("Little Women"), storage.Int(2019), storage.Int(900))
		return err
	case 9:
		_, err := e.Insert("GENRE", storage.Int(911), storage.String("Drama"))
		return err
	default:
		return fmt.Errorf("script: no mutation %d", i)
	}
}

const numCrashMutations = 10

func findDirector(e *Engine, name string) (storage.TupleID, bool) {
	return findTuple(e, "DIRECTOR", 1, name)
}

func findGenre(e *Engine, genre string) (storage.TupleID, bool) {
	return findTuple(e, "GENRE", 1, genre)
}

func findTuple(e *Engine, rel string, col int, want string) (id storage.TupleID, ok bool) {
	e.Database().Relation(rel).Scan(func(t storage.Tuple) bool {
		if t.Values[col].AsString() == want {
			id, ok = t.ID, true
			return false
		}
		return true
	})
	return id, ok
}

// newReferenceEngine builds the never-crashed in-memory engine with the
// first k scripted mutations applied.
func newReferenceEngine(t *testing.T, k int) *Engine {
	t.Helper()
	eng := newEngine(t) // example movies + narrative annotations + standard macros
	for i := 0; i < k; i++ {
		if err := crashMutation(eng, i); err != nil {
			t.Fatalf("reference mutation %d: %v", i, err)
		}
	}
	return eng
}

// refSnapshot captures everything the torture loop compares per prefix.
type refSnapshot struct {
	dump      string // canonical full-database dump
	ansDump   string // result database of the probe query ("" if no match)
	narrative string
}

const crashProbeQuery = `"Greta Gerwig" ladybird`

func captureRef(t *testing.T, e *Engine) refSnapshot {
	t.Helper()
	s := refSnapshot{dump: dumpDatabase(e.Database())}
	ans, err := e.QueryString(crashProbeQuery, Options{})
	if err != nil {
		if errors.Is(err, ErrNoMatches) {
			return s
		}
		t.Fatalf("probe query: %v", err)
	}
	s.ansDump = dumpDatabase(ans.Database)
	s.narrative = ans.Narrative
	return s
}

// crashImage is a data directory as a crash left it: its snapshot, and its
// WAL, which recovery reads as generation 1's.
type crashImage struct {
	snapName  string
	snap, wal []byte
}

// readCrashImage reads dir's snapshot and WAL as they stand.
func readCrashImage(t *testing.T, dir string) crashImage {
	t.Helper()
	var img crashImage
	for name, raw := range readDataDir(t, dir) {
		switch filepath.Ext(name) {
		case ".snap":
			img.snapName, img.snap = name, raw
		case ".log":
			img.wal = raw
		}
	}
	if img.snapName == "" || img.wal == nil {
		t.Fatalf("%s is missing a snapshot or a WAL", dir)
	}
	return img
}

// files is the image as a data directory's files.
func (img crashImage) files() map[string][]byte {
	return map[string][]byte{img.snapName: img.snap, gen1WAL: img.wal}
}

// buildCrashedDir runs the full script on a persistent engine and returns
// the snapshot and WAL as the crash point captured them, plus the WAL
// record count contributed by engine setup (standard macros) before the
// script ran.
func buildCrashedDir(t *testing.T) (img crashImage, preRecords int) {
	t.Helper()
	dir := t.TempDir()
	eng := openPersistent(t, dir) // logs the standard macros
	preRecords = int(eng.PersistStats().WALRecords)
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(eng, i); err != nil {
			t.Fatalf("persistent mutation %d: %v", i, err)
		}
	}
	// No Close: a crash never gets one. Grab the files as they stand.
	img = readCrashImage(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return img, preRecords
}

// walName mirrors the store's file naming for generation 1.
const gen1WAL = "wal-0000000000000001.log"

// tortureWALCuts cuts the image's WAL at every step-th offset, the whole log
// included, and recovers each cut. A recovery must be state-, answer- and
// narrative-identical to refs[k], k the script records that survive the cut
// whole; the torn remainder is truncated, never misread.
func tortureWALCuts(t *testing.T, img crashImage, preRecords, step int, refs []refSnapshot) {
	t.Helper()
	d := newTortureDir(t, img.files())
	for cut := 0; cut <= len(img.wal); cut += step {
		// How many complete records does the truncated log hold?
		info, err := wal.ReplayBytes(img.wal[:cut], nil)
		if err != nil {
			t.Fatalf("cut %d: reference replay rejected a pure truncation: %v", cut, err)
		}
		k := max(info.Records-preRecords, 0) // 0: still inside the setup macros
		if k >= len(refs) {
			t.Fatalf("cut %d: the cut log holds %d script records, beyond the %d of the image", cut, k, len(refs)-1)
		}
		d.run(gen1WAL, img.wal[:cut], func(dir string) {
			eng, err := reopenDir(t, dir)
			if err != nil {
				t.Fatalf("cut %d: recovery failed: %v", cut, err)
			}
			assertRefEqual(t, fmt.Sprintf("cut %d (%d script records)", cut, k), refs[k], captureRef(t, eng))
			if err := eng.Close(); err != nil {
				t.Fatalf("cut %d: close: %v", cut, err)
			}
		})
	}
	d.ran(strided(len(img.wal)+1, step))
	t.Logf("%d recoveries over a %d-byte WAL, all state-identical", d.cases, len(img.wal))
}

// TestCrashTortureKillAtEveryWALOffset truncates the WAL at every byte
// offset (every 13th under -short) and recovers, through tortureWALCuts.
func TestCrashTortureKillAtEveryWALOffset(t *testing.T) {
	img, preRecords := buildCrashedDir(t)
	refs := make([]refSnapshot, numCrashMutations+1) // per script prefix
	for k := range refs {
		refs[k] = captureRef(t, newReferenceEngine(t, k))
	}
	tortureWALCuts(t, img, preRecords, tortureStep(), refs)
}

// TestCrashTortureWALBitFlips flips one bit in every byte of the WAL and
// requires recovery to fail with a CorruptionError naming the log file at
// or before the damage — committed records are never silently dropped or
// misparsed.
func TestCrashTortureWALBitFlips(t *testing.T) {
	img, _ := buildCrashedDir(t)
	step := tortureStep()
	d := newTortureDir(t, img.files())
	walPath := filepath.Join(d.dir, gen1WAL)
	for off := 0; off < len(img.wal); off += step {
		d.run(gen1WAL, flipped(img.wal, off, 0x20), func(dir string) {
			_, err := reopenDir(t, dir)
			if err == nil {
				t.Fatalf("bit flip at WAL offset %d was silently accepted", off)
			}
			var ce *wal.CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("bit flip at WAL offset %d: error is not a CorruptionError: %v", off, err)
			}
			if ce.File != walPath {
				t.Fatalf("bit flip at WAL offset %d blamed %q, want %q", off, ce.File, walPath)
			}
			if ce.Offset < 0 || ce.Offset > int64(off) {
				t.Fatalf("bit flip at WAL offset %d blamed offset %d (past the damage)", off, ce.Offset)
			}
		})
	}
	d.ran(strided(len(img.wal), step))
}

// TestCrashTortureSnapshotBitFlips flips bits across the snapshot file:
// with a WAL present, recovery must hard-fail on every one — falling back
// or absorbing the flip would serve corrupted state.
func TestCrashTortureSnapshotBitFlips(t *testing.T) {
	img, _ := buildCrashedDir(t)
	step := tortureStep()
	d := newTortureDir(t, img.files())
	for off := 0; off < len(img.snap); off += step {
		d.run(img.snapName, flipped(img.snap, off, 0x08), func(dir string) {
			if _, err := reopenDir(t, dir); err == nil {
				t.Fatalf("bit flip at snapshot offset %d was silently accepted", off)
			}
		})
	}
	d.ran(strided(len(img.snap), step))
}
