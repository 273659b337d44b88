package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/storage"
	"precis/internal/wal"
)

// The probes are the part of the traced run that is not a replay of read
// requests: they time, from outside, the layers a read never reaches
// (storage and index mutation, WAL append, checkpoint, recovery) and the
// set-up steps (dataset load, index build, shard partition). They run on
// their own copy of the dataset, the same way on every workload.

const (
	probeBracket     = 10  // kernel calls on each side of a one-shot probe
	probeMutations   = 600 // storage/index mutate probe: inserts, then deletes
	probeAppends     = 300 // scratch-store WAL appends
	probeRoundWrites = 100 // engine writes before each probe checkpoint
	probeTailWrites  = 50  // writes left in the WAL for recovery to replay
	probeHits        = 200 // cache hits timed
	probeShards      = 4
)

// calibratedOnce times f once between two brackets of kernel calls and
// returns its calibrated duration in nanoseconds, with the bracket's F.
func calibratedOnce(f func() error) (ns, factor float64, err error) {
	var cal calibrator
	for i := 0; i < probeBracket; i++ {
		cal.call()
	}
	t0 := time.Now()
	err = f()
	raw := float64(time.Since(t0))
	for i := 0; i < probeBracket; i++ {
		cal.call()
	}
	return raw / cal.factor(), cal.factor(), err
}

// timedLoop times f(0..n-1) one call at a time with a kernel call after
// every `every` iterations and returns the 10%-trimmed mean in calibrated
// nanoseconds.
func timedLoop(n, every int, f func(i int) error) (float64, error) {
	var cal calibrator
	ns := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
		if (i+1)%every == 0 {
			cal.call()
		}
	}
	for cal.calls() < probeBracket {
		cal.call()
	}
	return trimmedMean(ns, trimFrac) / cal.factor(), nil
}

// probeResult holds the probes' per-layer numbers, times calibrated.
type probeResult struct {
	loadMS, indexBuildMS, partitionMS     float64
	mutateUS, maintainUS                  float64
	appendUS, walBytesPerMutation         float64
	writeUS, checkpointMS, compactMS      float64
	pauseMS, deltaBytesPerCkpt, fullBytes float64
	recoverMS                             float64
	hitUS                                 float64
	// db, index and graph are the probes' own copy of the dataset.
	db    *storage.Database
	index *invidx.Index
	graph *schemagraph.Graph
}

// copyDataset generates the probes' own copy of the dataset and its index,
// timing both.
func (pr *probeResult) copyDataset(sc scale, seed int64) error {
	ns, _, err := calibratedOnce(func() (err error) {
		pr.db, pr.graph, err = generateData(sc.cfg, seed)
		return err
	})
	if err != nil {
		return err
	}
	pr.loadMS = ns / 1e6
	ns, _, _ = calibratedOnce(func() error {
		pr.index = invidx.NewParallel(pr.db, runtime.GOMAXPROCS(0))
		return nil
	})
	pr.indexBuildMS = ns / 1e6
	return nil
}

// partition builds the sharded replay backend over db: a timed 4-way hash
// shard.Partition, then one index per shard.
func (pr *probeResult) partition(db *storage.Database, b *backend) error {
	part, err := shard.NewHashPartitioner(probeShards)
	if err != nil {
		return err
	}
	b.part = part
	ns, _, err := calibratedOnce(func() (err error) {
		b.dbs, err = shard.Partition(db, part)
		return err
	})
	if err != nil {
		return err
	}
	pr.partitionMS = ns / 1e6
	for _, sdb := range b.dbs {
		b.indexes = append(b.indexes, invidx.NewParallel(sdb, runtime.GOMAXPROCS(0)))
	}
	return nil
}

// probeMutate times storage.Database.Insert/Delete and the matching
// invidx.Index.AddTuple/RemoveTuple directly, leaving both as they were.
func (pr *probeResult) probeMutate(pools termPools, seed int64) error {
	r := rand.New(rand.NewSource(seed*1000 + 7))
	db, ix := pr.db, pr.index
	ids := make([]storage.TupleID, probeMutations)
	tuples := make([]storage.Tuple, probeMutations)
	var storageNS, indexNS []float64
	var cal calibrator
	for i := 0; i < 2*probeMutations; i++ {
		if i < probeMutations {
			o := writeOp(r, pools, 3*i) // 3i is never a delete slot
			t0 := time.Now()
			id, err := db.Insert("GENRE", storage.Int(o.mid), storage.String(o.genre))
			storageNS = append(storageNS, float64(time.Since(t0)))
			if err != nil {
				return err
			}
			ids[i] = id
			tuples[i], _ = db.Relation("GENRE").Get(id)
			t0 = time.Now()
			ix.AddTuple("GENRE", tuples[i])
			indexNS = append(indexNS, float64(time.Since(t0)))
		} else {
			j := i - probeMutations
			t0 := time.Now()
			ix.RemoveTuple("GENRE", tuples[j])
			indexNS = append(indexNS, float64(time.Since(t0)))
			t0 = time.Now()
			_, err := db.Delete("GENRE", ids[j])
			storageNS = append(storageNS, float64(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		if (i+1)%50 == 0 {
			cal.call()
		}
	}
	pr.mutateUS = trimmedMean(storageNS, trimFrac) / cal.factor() / 1e3
	pr.maintainUS = trimmedMean(indexNS, trimFrac) / cal.factor() / 1e3
	return nil
}

// emptyMovies is a schema-only movies database with its graph: the seed
// argument Open needs when the directory already holds the state.
func emptyMovies() (*storage.Database, *schemagraph.Graph, error) {
	db := storage.NewDatabase("synthetic-movies")
	if err := dataset.MoviesSchema(db); err != nil {
		return nil, nil, err
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		return nil, nil, err
	}
	return db, g, dataset.AnnotateNarrative(g)
}

// probeAppend times wal.Store.Append with fsync-always on a scratch store.
func (pr *probeResult) probeAppend(pools termPools, seed int64, dataRoot string) error {
	dir := filepath.Join(dataRoot, fmt.Sprintf("probe-wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := wal.Open(dir, wal.Config{Fsync: wal.FsyncAlways, Logger: quiet})
	if err != nil {
		return err
	}
	defer st.Close()
	seedDB, _, err := emptyMovies()
	if err != nil {
		return err
	}
	if err := st.Initialize(&wal.SnapshotData{DB: seedDB}); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed*1000 + 8))
	size0 := st.LogSize()
	ns, err := timedLoop(probeAppends, writeKernelEvery, func(i int) error {
		o := writeOp(r, pools, i)
		rec := wal.Record{Op: wal.OpDelete, Rel: "GENRE", ID: storage.TupleID(i)}
		if o.kind == opInsert {
			rec = wal.Record{Op: wal.OpInsert, Rel: "GENRE", ID: storage.TupleID(i + 1),
				Values: []storage.Value{storage.Int(o.mid), storage.String(o.genre)}}
		}
		return st.Append(rec)
	})
	pr.appendUS = ns / 1e3
	pr.walBytesPerMutation = float64(st.LogSize()-size0) / probeAppends
	return err
}

// copyDir copies the regular files of a data directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// reopenCopy is the durability check: it copies the data directory of an
// engine that is still open (no Close, no final checkpoint), recovers the
// copy, and verifies that every acknowledged bench write is there and every
// deleted bench row is not. It returns the raw recovery time.
func reopenCopy(dir string, w *writer) (time.Duration, error) {
	cp := dir + "-copy"
	if err := os.RemoveAll(cp); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cp)
	if err := copyDir(dir, cp); err != nil {
		return 0, err
	}
	seedDB, g, err := emptyMovies()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	eng, err := precis.Open(seedDB, g, persistConfig(cp, precis.FsyncNever))
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recovering a copy of %s: %w", dir, err)
	}
	defer eng.Close()
	rel := eng.Database().Relation("GENRE")
	for _, row := range w.live {
		t, ok := rel.Get(row.id)
		if !ok || t.Values[0].AsInt() != row.mid || t.Values[1].AsString() != row.genre {
			return took, fmt.Errorf("acknowledged bench row %d (%d, %q) is missing after recovery", row.id, row.mid, row.genre)
		}
	}
	for _, id := range w.deleted {
		if _, ok := rel.Get(id); ok {
			return took, fmt.Errorf("deleted bench row %d is back after recovery", id)
		}
	}
	return took, nil
}

// probeDurable mounts the probes' dataset as a persistent engine and times
// Engine.Insert/Delete, two delta checkpoints, one compaction, and the
// recovery of a copy taken with writes still in the WAL. It takes the
// dataset over, so it runs last.
func (pr *probeResult) probeDurable(pools termPools, seed int64, dataRoot string) error {
	dir := filepath.Join(dataRoot, fmt.Sprintf("probe-engine-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := persistConfig(dir, precis.FsyncAlways)
	cfg.CompactEvery = 3 // snapshot, delta, delta, then a compaction
	eng, err := precis.Open(pr.db, pr.graph, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	r := rand.New(rand.NewSource(seed*1000 + 9))
	w := &writer{eng: eng}
	n := 0
	var writeNS, deltaNS, pauseNS []float64
	writes := func(count int) error {
		ns, err := timedLoop(count, writeKernelEvery, func(int) error {
			n++
			return w.apply(writeOp(r, pools, n-1))
		})
		writeNS = append(writeNS, ns)
		return err
	}
	for round := 0; round < 3; round++ {
		if err := writes(probeRoundWrites); err != nil {
			return err
		}
		before := eng.PersistStats()
		ns, f, err := calibratedOnce(eng.Checkpoint)
		if err != nil {
			return err
		}
		after := eng.PersistStats()
		if round < 2 {
			deltaNS = append(deltaNS, ns)
			pauseNS = append(pauseNS, after.LastCheckpointPauseMS*1e6/f)
			continue
		}
		pr.compactMS = ns / 1e6
		pr.fullBytes = float64(after.FullBytesWritten - before.FullBytesWritten)
		pr.deltaBytesPerCkpt = float64(after.DeltaBytesWritten) / 2
		if pr.fullBytes == 0 {
			return fmt.Errorf("probe: the third checkpoint did not compact")
		}
	}
	pr.checkpointMS = sum(deltaNS) / 2 / 1e6
	pr.pauseMS = sum(pauseNS) / 2 / 1e6
	if err := writes(probeTailWrites); err != nil {
		return err
	}
	pr.writeUS = sum(writeNS) / float64(len(writeNS)) / 1e3
	var rawRecover time.Duration
	_, f, err := calibratedOnce(func() (err error) {
		rawRecover, err = reopenCopy(dir, w)
		return err
	})
	pr.recoverMS = float64(rawRecover) / f / 1e6
	return err
}

// probeHits times answer-cache hits on the engine under test, enabling the
// cache for the occasion where the workload runs without one.
func (pr *probeResult) probeHits(sys *system, sample []*request) error {
	if len(sample) > probeHits {
		sample = sample[:probeHits]
	}
	if !sys.eng.CacheEnabled() {
		sys.eng.EnableCache(precis.CacheConfig{MaxEntries: 256, TTL: 10 * time.Minute})
		defer sys.eng.DisableCache()
	}
	sys.eng.InvalidateCache()
	ctx := context.Background()
	for _, rq := range sample {
		if _, err := sys.eng.QueryStringContext(ctx, rq.query, rq.opts); err != nil {
			return err
		}
	}
	ns, err := timedLoop(len(sample), 4, func(i int) error {
		ans, err := sys.eng.QueryStringContext(ctx, sample[i].query, sample[i].opts)
		if err == nil && !ans.FromCache {
			err = fmt.Errorf("probe: %q was not served from the cache", sample[i].query)
		}
		return err
	})
	pr.hitUS = ns / 1e3
	return err
}
