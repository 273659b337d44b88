package precis

// Durable persistence: Open mounts a data directory holding a checksummed
// checkpoint chain (a full binary snapshot plus zero or more incremental
// deltas) and an append-only WAL (internal/wal), recovers whatever a
// previous process left — loading the chain, replaying the log, truncating
// a torn tail, hard-failing on real corruption — and from then on logs
// every engine mutation write-ahead-style. Checkpoint (manual,
// size-triggered, or time-triggered) runs in two phases: a brief rotation
// plus dirty capture under the mutation lock (O(changed tuples), not
// O(database)), then the serialization and fsync entirely off-lock —
// usually as a small delta extending the chain, periodically (CompactEvery
// / CompactBytes) as a full compaction that also persists the inverted
// index beside the snapshot so the next open can load it instead of
// rebuilding. All of it hangs off the node (node.go) whose partition it
// makes durable. Engines built with New stay purely in-memory: the query hot
// path never touches any of this (the only cost is a nil check on the
// mutation paths), so cached-query allocation counts are unchanged.

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/wal"
)

// ErrNotPersistent is returned by Checkpoint on an engine built without a
// data directory.
var ErrNotPersistent = errors.New("precis: engine has no persistence layer")

// FsyncPolicy re-exports the WAL durability policies.
type FsyncPolicy = wal.FsyncPolicy

// The WAL fsync policies: FsyncAlways makes every returned mutation
// durable (group-committed), FsyncInterval flushes on a timer, FsyncNever
// leaves flushing to the OS.
const (
	FsyncAlways   = wal.FsyncAlways
	FsyncInterval = wal.FsyncInterval
	FsyncNever    = wal.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// DefaultCheckpointBytes triggers a checkpoint when the WAL reaches this
// size and PersistConfig.CheckpointBytes is zero.
const DefaultCheckpointBytes = 4 << 20

// DefaultCompactEvery caps the checkpoint chain at this many elements (one
// full snapshot plus deltas) when PersistConfig.CompactEvery is zero; the
// checkpoint that would exceed it compacts the chain instead.
const DefaultCompactEvery = 8

// DefaultCompactBytes compacts the chain when its delta files total this
// many bytes and PersistConfig.CompactBytes is zero.
const DefaultCompactBytes = 64 << 20

// PersistConfig tunes the persistence layer.
type PersistConfig struct {
	// Dir is the data directory. Empty disables persistence entirely (Open
	// degenerates to New).
	Dir string
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval flushing (0: wal.DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CheckpointBytes checkpoints when the WAL reaches this size. Zero
	// means DefaultCheckpointBytes; negative disables the size trigger.
	CheckpointBytes int64
	// CheckpointEvery checkpoints on a timer; 0 disables the time trigger.
	CheckpointEvery time.Duration
	// CompactEvery caps the checkpoint chain length (full snapshot + deltas):
	// the checkpoint that would push the chain past it writes a full
	// compaction instead of a delta. Zero means DefaultCompactEvery; negative
	// disables delta checkpointing entirely (every checkpoint is full).
	CompactEvery int
	// CompactBytes compacts the chain when its delta files total this many
	// bytes, whatever the chain length. Zero means DefaultCompactBytes;
	// negative disables the byte trigger.
	CompactBytes int64
	// Logger receives recovery and checkpoint notes; nil uses log.Default().
	Logger *log.Logger
}

// errClosed refuses durable work on an engine whose Close has run.
var errClosed = errors.New("precis: engine is closed")

// compactionDue decides delta versus full for the checkpoint begun on top
// of prevChain in store: full when the chain would outgrow CompactEvery or
// its delta files outgrow CompactBytes.
func (n *node) compactionDue(store *wal.Store, prevChain []uint64) bool {
	every := n.cfg.CompactEvery
	if every == 0 {
		every = DefaultCompactEvery
	}
	if every < 0 {
		return true
	}
	if len(prevChain) >= every {
		return true
	}
	bytes := n.cfg.CompactBytes
	if bytes == 0 {
		bytes = DefaultCompactBytes
	}
	return bytes > 0 && store.ChainDeltaBytes() >= bytes
}

// indexPatch implements wal.RecoveryObserver: it collects what the tuples
// recovery or a compaction changed do to the postings of their base, to patch
// the base generation's persisted index with (invidx.Patch), so the engine
// can skip the from-scratch rebuild. Any defect in the file — absence,
// corruption, version skew (format or tokenizer), a stale generation stamp —
// falls back to the rebuild; a persisted index is an optimization, never a
// requirement.
type indexPatch struct {
	gen   uint64
	patch *invidx.Patch
}

func (o *indexPatch) RecoveryBase(gen uint64, db *storage.Database) {
	o.gen, o.patch = gen, invidx.NewPatch(db)
}

func (o *indexPatch) RecoveryApply(relation string, old, new *storage.Tuple) {
	if old != nil {
		o.patch.RemoveTuple(relation, *old)
	}
	if new != nil {
		o.patch.AddTuple(relation, *new)
	}
}

// patched returns the base generation's index file in dir with the patch
// applied, stamped gen, or nil when there is no usable one — saying why,
// unless the file is simply absent.
func (o *indexPatch) patched(dir string, gen uint64, logger *log.Logger) []byte {
	path := filepath.Join(dir, wal.IndexSnapshotName(o.gen))
	raw, err := func() ([]byte, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return nil, err
		}
		raw, stamp, err := o.patch.Apply(f, int(info.Size()), gen)
		if err == nil && stamp != o.gen {
			err = fmt.Errorf("stamped for generation %d, want %d", stamp, o.gen)
		}
		return raw, err
	}()
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			logger.Printf("precis: persisted index %s unusable (%v); rebuilding", path, err)
		}
		return nil
	}
	return raw
}

// RecoveryStats reports what Open reconstructed from disk.
type RecoveryStats struct {
	// SnapshotLoaded is false on a fresh directory.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotPath is the snapshot file recovery started from.
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// ChainDepth is the checkpoint chain length recovery loaded (1 = full
	// snapshot only; each delta adds one). Zero on a fresh directory.
	ChainDepth int `json:"chain_depth,omitempty"`
	// DeltasApplied counts delta checkpoints applied on top of the base
	// snapshot.
	DeltasApplied int `json:"deltas_applied,omitempty"`
	// IndexLoaded is true when the inverted index was loaded from its
	// persisted snapshot instead of rebuilt from the tuples.
	IndexLoaded bool `json:"index_loaded"`
	// WALRecordsReplayed counts log records applied on top of the snapshot.
	WALRecordsReplayed int `json:"wal_records_replayed"`
	// TornBytesTruncated counts torn-tail bytes cut from the log (work the
	// crash lost mid-write; never a committed record).
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
	// DurationMS is the wall-clock recovery time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
}

// PersistStats reports the persistence layer's live counters.
type PersistStats struct {
	Enabled        bool      `json:"enabled"`
	Dir            string    `json:"dir,omitempty"`
	Fsync          string    `json:"fsync,omitempty"`
	Generation     uint64    `json:"generation,omitempty"`
	WALBytes       int64     `json:"wal_bytes,omitempty"`
	WALRecords     int64     `json:"wal_records,omitempty"`
	Checkpoints    uint64    `json:"checkpoints,omitempty"`
	LastCheckpoint time.Time `json:"last_checkpoint,omitempty"`
	// ChainDepth is the live checkpoint chain length (1 = just the full
	// base snapshot). On a sharded engine, the deepest shard chain.
	ChainDepth int `json:"chain_depth,omitempty"`
	// LastCheckpointPauseMS is how long the last checkpoint held the
	// mutation lock (rotation + dirty capture), in milliseconds. On a
	// sharded engine, the largest shard pause.
	LastCheckpointPauseMS float64 `json:"last_checkpoint_pause_ms,omitempty"`
	// DeltaBytesWritten / FullBytesWritten are cumulative checkpoint bytes
	// by kind since open.
	DeltaBytesWritten int64 `json:"delta_bytes_written,omitempty"`
	FullBytesWritten  int64 `json:"full_bytes_written,omitempty"`
	// LastFullCheckpointMS and LastFullCheckpointBytes are what the last
	// full checkpoint took, from rotation to durable snapshot, and wrote.
	// IndexSnapshot says how it came by the index it persisted: "derived"
	// (a compaction carrying the base generation's index forward over the
	// tuples that changed), "rebuilt" (a compaction indexing the merged
	// state, the base having no usable index) or "live" (the engine's own,
	// written by the full snapshot that heals a log an fsync failure
	// poisoned). On a sharded engine, all three are the slowest shard's.
	LastFullCheckpointMS    float64       `json:"last_full_checkpoint_ms,omitempty"`
	LastFullCheckpointBytes int64         `json:"last_full_checkpoint_bytes,omitempty"`
	IndexSnapshot           string        `json:"index_snapshot,omitempty"`
	Recovery                RecoveryStats `json:"recovery"`
}

// Open is New plus durability. With an empty cfg.Dir it is exactly New.
// Otherwise it mounts the data directory:
//
//   - an empty directory is seeded with a generation-1 snapshot of db (plus
//     the graph-independent engine extras), and db becomes the live state;
//   - a populated directory is recovered instead: the newest valid snapshot
//     is loaded, its WAL replayed on top (a torn final record is truncated
//     with a logged warning; a checksum failure anywhere else aborts with a
//     file/offset/record diagnostic), join indexes and the inverted index
//     are rebuilt, and referential integrity is re-verified. The caller's
//     db is then only a seed and is discarded.
//
// Every subsequent mutation (Insert, Update, Delete, AddSynonym,
// DefineMacro) is checked, then logged to the WAL under cfg.Fsync, then
// applied; if the log write fails nothing is applied and the error is
// returned, so memory and disk cannot diverge.
// Callers own the returned engine's lifecycle: Close checkpoints and
// releases the directory.
func Open(db *storage.Database, g *schemagraph.Graph, cfg PersistConfig) (*Engine, error) {
	n, err := openNode(db, g, cfg, true)
	if err != nil {
		return nil, err
	}
	e, err := assemble(g, n)
	if err != nil {
		if n.store != nil {
			_ = n.store.Close()
		}
		return nil, err
	}
	if n.store != nil && n.store.FencedBy() != 0 {
		// The directory belonged to a deposed primary: the fence is durable
		// and survives restarts, so this engine refuses mutations from its
		// first instruction. Rejoining the cluster as a follower
		// (OpenFollower on the same directory) is the only way out.
		_ = e.transition(roleEvent{kind: evFence, by: n.store.FencedBy()}) // from writable: never refused
	}
	return e, nil
}

// openNode mounts (or seeds) one partition's data directory; with an empty
// cfg.Dir it is newNode. whole is load's: false for a shard.
func openNode(db *storage.Database, g *schemagraph.Graph, cfg PersistConfig, whole bool) (*node, error) {
	if cfg.Dir == "" {
		return newNode(db, g, nil)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	logger := cfg.Logger
	ip := &indexPatch{}
	store, rec, err := wal.Open(cfg.Dir, wal.Config{
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
		Logger:        logger,
		Observer:      ip,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*node, error) {
		_ = store.Close()
		return nil, err
	}
	var n *node
	var ix *invidx.Index // the persisted index recovery patched, when there is one
	if rec.Data == nil {
		if n, err = newNode(db, g, nil); err != nil {
			return fail(err)
		}
		// The seed index goes beside generation 1, so the first compaction
		// can carry it forward.
		if err := store.InitializeIndexed(&wal.SnapshotData{DB: db}, n.index.EncodeSnapshot(1)); err != nil {
			return fail(err)
		}
		logger.Printf("precis: persistence initialized in %s (generation 1, %d tuples, fsync=%s)",
			cfg.Dir, db.TotalTuples(), cfg.Fsync)
	} else {
		// The base generation's persisted index, patched over every delta and
		// log record recovery applied, is decoded for load to adopt.
		start := time.Now()
		if raw := ip.patched(cfg.Dir, ip.gen, logger); raw != nil {
			if ix, _, err = invidx.DecodeSnapshot(raw, rec.Data.DB); err != nil {
				logger.Printf("precis: patched index of %s unusable (%v); rebuilding", cfg.Dir, err)
				ix = nil
			}
		}
		rec.Duration += time.Since(start)
		if n, err = load(rec.Data, g, whole, ix); err != nil {
			return fail(fmt.Errorf("precis: recovering %s: %w", cfg.Dir, err))
		}
		indexHow := "rebuilt"
		if ix != nil {
			indexHow = "loaded"
		}
		logger.Printf("precis: recovered %s: generation %d (chain depth %d, %d delta(s)), %d tuples, %d relations, %d WAL record(s) replayed, %d torn byte(s) truncated, index %s, in %v",
			cfg.Dir, rec.Gen, rec.ChainDepth, rec.DeltasApplied, n.db.TotalTuples(), n.db.NumRelations(), rec.WALRecords, rec.TornBytes, indexHow, rec.Duration.Round(time.Microsecond))
	}
	n.store, n.cfg = store, cfg
	n.recovered, n.indexLoaded = *rec, ix != nil
	return n, nil
}

// Sync forces every appended WAL record to disk regardless of the fsync
// policy — the benchmark and pre-crash hooks use it to draw a durable
// line. On an in-memory engine it is a no-op.
func (e *Engine) Sync() error { return e.backend.each((*node).sync) }

func (n *node) sync() error {
	n.owner.mu.Lock()
	defer n.owner.mu.Unlock()
	if n.store == nil {
		return nil
	}
	return n.store.Sync() // a closed store has nothing left to sync
}

// Checkpoint makes the engine's current state the new recovery baseline:
// it rotates the WAL and captures the dirty state under the mutation lock
// — a pause proportional to the number of tuples changed since the last
// checkpoint, not to the database — then serializes and fsyncs entirely
// off-lock while mutations and queries proceed. Most checkpoints write an
// incremental delta extending the checkpoint chain; when the chain outgrows
// CompactEvery or CompactBytes the state is instead synthesized from disk
// into a fresh full snapshot, persisted together with an inverted-index
// snapshot the next open can load instead of rebuilding. Returns
// ErrNotPersistent on an in-memory engine. A sharded engine checkpoints
// every shard, one after another.
func (e *Engine) Checkpoint() error { return e.backend.each((*node).checkpoint) }

func (n *node) checkpoint() error {
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	n.owner.mu.Lock()
	if n.store == nil {
		n.owner.mu.Unlock()
		return ErrNotPersistent
	}
	if n.owner.role.kind == roleClosed {
		n.owner.mu.Unlock()
		return errClosed
	}
	return n.checkpointTo(n.store)
}

// checkpointTo is every checkpoint there is: the manual and background ones,
// Close's final one, and a durable follower's mirror of its primary's
// rotation onto its own store (which stays the replica's until Promote). The
// caller holds ckptMu and the engine mutex; checkpointTo releases the mutex.
func (n *node) checkpointTo(store *wal.Store) error {
	mu := &n.owner.mu
	// Phase 1 — under the mutation lock, O(dirty): rotate the log and
	// capture the changed tuples as copy-on-write references (records are
	// never written, so the captured rows are stable).
	pauseStart := time.Now()
	h, err := store.BeginCheckpoint()
	if err != nil {
		defer mu.Unlock()
		if !errors.Is(err, wal.ErrUnsyncedLog) {
			return err
		}
		// An earlier fsync failure poisoned the log: supersede it with the
		// live state and index, stamped with the generation Supersede makes.
		if err := store.Supersede(n.snapshotData(), n.index.EncodeSnapshot(store.Generation()+1)); err != nil {
			return err
		}
		n.db.CaptureDirty() // the snapshot covers it
		n.indexSnapshot.Store(indexLive)
		return nil
	}
	ds := n.db.CaptureDirty()
	d := &wal.DeltaData{
		NextTupleID: n.db.NextTupleID(),
		Synonyms:    n.index.Synonyms(),
		Macros:      append([]string(nil), n.macroDefs...),
		FKs:         n.db.ForeignKeys(),
		Relations:   ds.Relations,
	}
	pause := time.Since(pauseStart)
	mu.Unlock()

	n.lastPauseNS.Store(pause.Nanoseconds())
	if hist := n.pauseHist.Load(); hist != nil {
		hist.ObserveNanos(pause.Nanoseconds())
	}

	// Phase 2 — off the lock. On failure the rotation stands (recovery
	// replays the extra log generation seamlessly) and the dirty set is
	// merged back so the next checkpoint's delta still covers everything
	// since the last durable one.
	restore := func() {
		mu.Lock()
		n.db.MergeDirty(ds)
		mu.Unlock()
		h.Abort()
	}
	if !n.compactionDue(store, h.PrevChain()) {
		if err := store.CompleteDelta(h, d); err != nil {
			restore()
			return fmt.Errorf("precis: delta checkpoint: %w", err)
		}
		return nil
	}
	// Compaction: merge the rotation-point snapshot from the chain's bytes
	// and the captured delta, and persist an index beside it — the base
	// generation's, patched over the tuples that changed, or, when the base
	// has none (a follower's installed snapshot, a damaged file), one built
	// from the merged state.
	ip := &indexPatch{}
	raw, err := store.Compact(h, d, ip)
	var index []byte
	how := indexDerived
	if err == nil {
		if index = ip.patched(store.Dir(), h.Gen(), n.cfg.Logger); index == nil {
			how = indexRebuilt
			var data *wal.SnapshotData
			if data, err = wal.DecodeSnapshot("", raw); err == nil {
				index = invidx.NewParallel(data.DB, runtime.GOMAXPROCS(0)).EncodeSnapshot(h.Gen())
			}
		}
	}
	if err == nil {
		err = store.CompleteFull(h, raw, index)
	}
	if err != nil {
		restore()
		return fmt.Errorf("precis: checkpoint: %w", err)
	}
	n.indexSnapshot.Store(how)
	return nil
}

// How a full checkpoint came by the index snapshot it persisted
// (PersistStats.IndexSnapshot).
const (
	indexDerived = "derived" // the base generation's, carried over the changed tuples
	indexRebuilt = "rebuilt" // built from the merged state
	indexLive    = "live"    // the engine's own, written under the mutation lock by the poisoned-log heal
)

// Close shuts the engine down: replication stops, the background
// checkpointer stops, a final checkpoint runs, and the WAL closes. On an
// in-memory engine it is a no-op. The engine refuses further mutations and
// checkpoints afterwards; queries keep working (the in-memory state stays
// valid). A second Close returns nil.
//
// On a replicated engine, replication stops first: a primary severs its
// follower links before the final checkpoint rotates the WAL away; a
// follower stops its transport and keeps serving its last applied state.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	e.mu.Lock()
	was := e.role
	moved := e.transition(roleEvent{kind: evClose}) == nil
	e.mu.Unlock()
	var err error
	if moved {
		if was.primary != nil {
			// Remove the quorum gate before closing the primary: a mutation
			// mid-wait must not block shutdown, and the final checkpoint below
			// must not wait on acks from links we are about to sever.
			e.backend.single().store.SetCommitGate(nil)
			_ = was.primary.Close()
		}
		if was.follower != nil {
			was.follower.stop()
		}
		// Close every partition even if one fails; the first error wins.
		err = e.backend.each((*node).close)
	}
	e.lifeMu.Unlock()
	// The failover supervisor stops last and outside the lifecycle lock:
	// its promotion callback takes lifeMu, and Stop waits for it to return —
	// which it now does promptly, refused by the closed role.
	if moved && was.failover != nil {
		was.failover.Stop()
	}
	return err
}

// close runs the final checkpoint and closes the WAL. The owner's role is
// already closed: this runs once, and nothing can start behind it.
func (n *node) close() error {
	if n.store == nil {
		return nil
	}
	n.stopCheckpointer()
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	n.owner.mu.Lock()
	var firstErr error
	if err := n.checkpointTo(n.store); err != nil {
		firstErr = fmt.Errorf("precis: final checkpoint: %w", err)
		// The checkpoint failed but the WAL still holds every mutation:
		// force it to disk so nothing is lost even on this path.
		if err := n.store.Sync(); err != nil {
			n.cfg.Logger.Printf("precis: close: WAL sync also failed: %v", err)
		}
	}
	if err := n.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// PersistStats snapshots the persistence counters. Enabled is false (and
// everything else zero) on an in-memory engine.
func (e *Engine) PersistStats() PersistStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.backend.persistStats()
}

func (n *node) persistStats() PersistStats {
	if n.store == nil {
		return PersistStats{}
	}
	st := n.store.Stats()
	indexHow, _ := n.indexSnapshot.Load().(string)
	return PersistStats{
		Enabled:               true,
		Dir:                   st.Dir,
		Fsync:                 st.Fsync,
		Generation:            st.Generation,
		WALBytes:              st.WALBytes,
		WALRecords:            st.WALRecords,
		Checkpoints:           st.Checkpoints,
		LastCheckpoint:        st.LastCkpt,
		ChainDepth:            st.ChainDepth,
		LastCheckpointPauseMS: float64(n.lastPauseNS.Load()) / 1e6,
		DeltaBytesWritten:     st.DeltaBytes,
		FullBytesWritten:      st.FullBytes,

		LastFullCheckpointMS:    float64(st.LastFull.Nanoseconds()) / 1e6,
		LastFullCheckpointBytes: st.LastFullBytes,
		IndexSnapshot:           indexHow,
		Recovery: RecoveryStats{
			SnapshotLoaded:     n.recovered.Data != nil,
			SnapshotPath:       n.recovered.SnapshotPath,
			ChainDepth:         n.recovered.ChainDepth,
			DeltasApplied:      n.recovered.DeltasApplied,
			IndexLoaded:        n.indexLoaded,
			WALRecordsReplayed: n.recovered.WALRecords,
			TornBytesTruncated: n.recovered.TornBytes,
			DurationMS:         float64(n.recovered.Duration.Nanoseconds()) / 1e6,
		},
	}
}

// startCheckpointer launches a durable node's background size/time
// checkpoint triggers. The node must have its owner.
func (n *node) startCheckpointer() {
	if n.store == nil {
		return
	}
	sizeTrigger := n.cfg.CheckpointBytes
	if sizeTrigger == 0 {
		sizeTrigger = DefaultCheckpointBytes
	}
	if sizeTrigger < 0 && n.cfg.CheckpointEvery <= 0 {
		return // checkpoints are manual only
	}
	poll := time.Second
	if n.cfg.CheckpointEvery > 0 && n.cfg.CheckpointEvery/4 < poll {
		poll = n.cfg.CheckpointEvery / 4
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		t := time.NewTicker(poll)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				due := sizeTrigger > 0 && n.store.LogSize() >= sizeTrigger
				if !due && n.cfg.CheckpointEvery > 0 {
					due = time.Since(n.store.Stats().LastCkpt) >= n.cfg.CheckpointEvery
				}
				if !due {
					continue
				}
				if err := n.checkpoint(); err != nil {
					if errors.Is(err, errClosed) {
						return
					}
					n.cfg.Logger.Printf("precis: background checkpoint failed: %v", err)
				}
			}
		}
	}()
}

// stopCheckpointer halts the background trigger goroutine, if any.
func (n *node) stopCheckpointer() {
	n.stopOnce.Do(func() {
		if n.stop != nil {
			close(n.stop)
			<-n.done
		}
	})
}

// Persistence metric names.
const (
	MetricWALBytes          = "precis_wal_appended_bytes_total"
	MetricWALRecords        = "precis_wal_appended_records_total"
	MetricWALFsyncs         = "precis_wal_fsyncs_total"
	MetricWALFsyncSeconds   = "precis_wal_fsync_seconds"
	MetricWALSizeBytes      = "precis_wal_size_bytes"
	MetricCheckpoints       = "precis_checkpoints_total"
	MetricCheckpointSeconds = "precis_checkpoint_seconds"
	MetricCheckpointPause   = "precis_checkpoint_pause_seconds"
	MetricWALDeltaCkpts     = "precis_wal_delta_checkpoints_total"
	MetricWALDeltaBytes     = "precis_wal_delta_bytes_total"
	MetricChainDepth        = "precis_persist_chain_depth"
	MetricPersistGeneration = "precis_persist_generation"
	MetricRecoveryReplayed  = "precis_recovery_wal_records_replayed"
	MetricRecoveryTorn      = "precis_recovery_torn_bytes_truncated"
	MetricRecoverySeconds   = "precis_recovery_seconds"
	MetricRecoveryIndexLoad = "precis_recovery_index_loaded"
)

// instrument registers a durable node's persistence instruments. Called by
// Engine.Instrument, and by the role transition that mounts a promoted
// follower's store — becoming durable after Instrument must not go dark.
func (n *node) instrument(reg *obs.Registry) {
	if n.store == nil {
		return
	}
	store := n.store
	reg.Help(MetricWALBytes, "bytes appended to the write-ahead log (including frame headers)")
	reg.Help(MetricWALRecords, "mutation records appended to the write-ahead log")
	reg.Help(MetricWALFsyncs, "WAL fsync calls (group commits share one)")
	reg.Help(MetricWALFsyncSeconds, "WAL fsync latency in seconds")
	reg.Help(MetricWALSizeBytes, "current size of the active WAL generation")
	reg.Help(MetricCheckpoints, "completed checkpoints (snapshot + WAL rotation + GC)")
	reg.Help(MetricCheckpointSeconds, "end-to-end checkpoint latency in seconds")
	reg.Help(MetricCheckpointPause, "mutation-lock pause per checkpoint (rotation + dirty capture) in seconds")
	reg.Help(MetricWALDeltaCkpts, "checkpoints completed as incremental deltas")
	reg.Help(MetricWALDeltaBytes, "bytes written as delta checkpoints")
	reg.Help(MetricChainDepth, "live checkpoint chain length (1 = full snapshot only)")
	reg.Help(MetricPersistGeneration, "active snapshot generation")
	reg.Help(MetricRecoveryReplayed, "WAL records replayed by the last recovery")
	reg.Help(MetricRecoveryTorn, "torn-tail bytes truncated by the last recovery")
	reg.Help(MetricRecoverySeconds, "wall-clock duration of the last recovery")
	reg.Help(MetricRecoveryIndexLoad, "1 when the last recovery loaded the persisted inverted index, 0 when it rebuilt")
	store.SetMetrics(&wal.Metrics{
		AppendedBytes:    reg.Counter(MetricWALBytes),
		AppendedRecords:  reg.Counter(MetricWALRecords),
		Fsyncs:           reg.Counter(MetricWALFsyncs),
		FsyncSeconds:     reg.Histogram(MetricWALFsyncSeconds),
		Checkpoints:      reg.Counter(MetricCheckpoints),
		CheckpointSecs:   reg.Histogram(MetricCheckpointSeconds),
		DeltaCheckpoints: reg.Counter(MetricWALDeltaCkpts),
		DeltaBytes:       reg.Counter(MetricWALDeltaBytes),
	})
	n.pauseHist.Store(reg.Histogram(MetricCheckpointPause))
	reg.GaugeFunc(MetricWALSizeBytes, func() float64 { return float64(store.LogSize()) })
	reg.GaugeFunc(MetricChainDepth, func() float64 { return float64(store.ChainDepth()) })
	reg.GaugeFunc(MetricPersistGeneration, func() float64 { return float64(store.Generation()) })
	reg.GaugeFunc(MetricRecoveryReplayed, func() float64 { return float64(n.recovered.WALRecords) })
	reg.GaugeFunc(MetricRecoveryTorn, func() float64 { return float64(n.recovered.TornBytes) })
	reg.GaugeFunc(MetricRecoverySeconds, func() float64 { return n.recovered.Duration.Seconds() })
	reg.GaugeFunc(MetricRecoveryIndexLoad, func() float64 {
		if n.indexLoaded {
			return 1
		}
		return 0
	})
}
