package wal

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"precis/internal/faultinject"
)

// ErrUnsyncedLog means a checkpoint rotation could not finalize the active
// log (its writer is poisoned by an earlier fsync failure). Incremental
// checkpoints are impossible in this state — recovery may need the log a
// delta would let GC collect — but CheckpointFull still heals it by writing
// the full snapshot before abandoning the unsyncable log.
var ErrUnsyncedLog = errors.New("wal: cannot sync log for rotation")

// Config tunes a Store.
type Config struct {
	// Fsync is the WAL durability policy.
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval flushing (0: DefaultFsyncInterval).
	FsyncInterval time.Duration
	// Logger receives recovery warnings and checkpoint notes; nil uses
	// log.Default().
	Logger *log.Logger
	// Observer, when set, watches recovery reconstruct the database — the
	// base snapshot, every delta-applied tuple, every replayed WAL record —
	// so the engine can keep a persisted inverted index current instead of
	// rebuilding it.
	Observer RecoveryObserver
}

// Recovered reports what Open reconstructed from disk.
type Recovered struct {
	// Data is the recovered state, nil when the directory held no snapshot
	// (a fresh database — the caller seeds it via Initialize).
	Data *SnapshotData
	// Gen is the active generation.
	Gen uint64
	// SnapshotPath is the base snapshot file loaded ("" when fresh).
	SnapshotPath string
	// ChainDepth is the checkpoint chain length loaded (1 = full snapshot
	// only, each delta adds one).
	ChainDepth int
	// DeltasApplied is how many delta checkpoints were applied on top of
	// the base snapshot.
	DeltasApplied int
	// WALRecords is how many log records were replayed on top of the
	// chain.
	WALRecords int
	// TornBytes is how many bytes of torn WAL tail were truncated.
	TornBytes int64
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// Store manages one data directory: the current checkpoint chain (a full
// snapshot plus zero or more delta checkpoints) and its write-ahead log.
// Callers serialize Append against checkpoints (the engine holds its
// mutation lock for rotation and serializes whole checkpoints itself);
// Stats/LogSize are safe from any goroutine.
type Store struct {
	dir string
	cfg Config
	log *log.Logger

	mu          sync.Mutex
	gen         uint64
	w           *Writer
	metrics     *Metrics
	checkpoints uint64
	lastCkpt    time.Time
	closed      bool

	// chain is the live checkpoint chain: chain[0] is a full snapshot
	// generation, every later element a delta generation, ascending. The
	// active log generation gen is >= the chain tip; it runs ahead of it
	// only while a begun checkpoint has not completed.
	chain []uint64
	// deltaBytes / fullBytes are cumulative checkpoint bytes written by
	// kind, for the bytes-per-checkpoint story in stats and metrics.
	deltaBytes int64
	fullBytes  int64

	// epoch is the failover fencing epoch (see epoch.go); fencedBy, when
	// non-zero, is the newer epoch that deposed this store — every append
	// fails with ErrFenced until the store rejoins at that epoch or later.
	epoch    uint64
	fencedBy uint64

	// genEnds records the final durable frontier of rotated (and closed)
	// generations, so a replication streamer crossing a rotation knows
	// where the old log ends. Pruned to the most recent few rotations.
	genEnds map[uint64]genEnd

	// Replication subscribers, woken (coalesced) whenever the durable
	// frontier advances or the generation rotates. Guarded by subMu, not
	// mu: the writer's advance hook fires from append/fsync paths that
	// must not take the store lock.
	subMu sync.Mutex
	subs  map[int]chan struct{}
	subID int

	// commitGate, when set, is called after every locally successful
	// Append with the record's position; Append does not return until the
	// gate does. Synchronous replication installs its quorum wait here, so
	// the gate rides the same group-commit path that makes the record
	// locally durable. A gate error is returned from Append, but the
	// record stays in the log — the caller distinguishes "not written"
	// from "written locally, replication guarantee not met".
	commitGate atomic.Pointer[CommitGate]
}

// CommitGate blocks a locally durable append until an external commit
// condition (a replication quorum) is satisfied. records is the 1-based
// index of the appended record within gen.
type CommitGate func(gen uint64, records int64) error

// genEnd is the durable frontier a generation's log ended at.
type genEnd struct {
	records int64
	bytes   int64
}

// Open mounts dir, recovering whatever a previous process left: it loads
// the newest valid base snapshot, applies the delta checkpoints chained on
// top of it, replays every WAL from the chain tip through the newest
// generation (truncating a torn final tail with a warning), and opens the
// log for appending. Corruption — a checksum mismatch in a snapshot, a
// delta, or the middle of a WAL; a broken chain link; a gap in the log
// sequence — is returned as a *CorruptionError (or a hard error naming the
// gap); it is never silently skipped. An empty directory yields
// Recovered.Data == nil; call Initialize with the seed state before
// appending.
func Open(dir string, cfg Config) (*Store, *Recovered, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("wal: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.Default()
	}
	s := &Store{dir: dir, cfg: cfg, log: lg}

	start := time.Now()
	rec := &Recovered{}
	snaps, err := s.listGenerations()
	if err != nil {
		return nil, nil, err
	}
	// Remove abandoned temp files from an interrupted snapshot, delta,
	// manifest, or epoch write.
	for _, pattern := range []string{".tmp-snap-*", ".tmp-epoch-*"} {
		tmps, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, t := range tmps {
			lg.Printf("wal: removing abandoned temp file %s", t)
			_ = os.Remove(t)
		}
	}
	if err := s.loadEpoch(); err != nil {
		return nil, nil, err
	}
	deltas := s.listDeltaGens()
	walGens := s.listWALGens()
	walSet := make(map[uint64]bool, len(walGens))
	for _, g := range walGens {
		walSet[g] = true
	}

	// Choose the chain base: walk snapshot generations newest-first. An
	// incomplete snapshot (an interrupted write that still became visible —
	// possible on filesystems without atomic-rename durability) falls back
	// to an older generation; if nothing was ever built on it (no WAL, no
	// delta) it is removed outright, otherwise the WAL-continuity check
	// below decides whether the fallback loses anything. A corrupt snapshot
	// (flipped bits) hard-fails.
	var base *SnapshotData
	var baseGen uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		g := snaps[i]
		path := filepath.Join(dir, snapshotName(g))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		data, err := DecodeSnapshot(path, raw)
		if err != nil {
			if IsIncomplete(err) {
				if !walSet[g] && !hasGenAbove(deltas, g) {
					// Nothing was ever written after this snapshot, so
					// nothing is lost by ignoring it.
					lg.Printf("wal: ignoring incomplete snapshot %s (%v)", path, err)
					_ = os.Remove(path)
					continue
				}
				lg.Printf("wal: snapshot %s incomplete (%v); falling back to an older base", path, err)
				continue
			}
			return nil, nil, err
		}
		base = data
		baseGen = g
		rec.SnapshotPath = path
		break
	}

	if base == nil {
		if len(snaps) > 0 {
			return nil, nil, fmt.Errorf("wal: %s holds %d snapshot file(s) but none is loadable", dir, len(snaps))
		}
		if len(deltas) > 0 {
			return nil, nil, fmt.Errorf("wal: %s holds %d delta file(s) but no base snapshot; refusing to guess at a base state", dir, len(deltas))
		}
		if leftover := s.walFiles(); len(leftover) > 0 {
			return nil, nil, fmt.Errorf("wal: %s holds WAL files %v but no snapshot; refusing to guess at a base state", dir, leftover)
		}
		rec.Gen = 0 // Initialize will move to generation 1
		rec.Duration = time.Since(start)
		return s, rec, nil
	}

	obs := cfg.Observer
	if obs != nil {
		obs.RecoveryBase(baseGen, base.DB)
	}

	// Apply the delta chain above the base, validating every link: each
	// delta's BaseGen must name the previous chain element. A torn tip
	// delta is dropped only when the retained logs still cover its content
	// (they always do when the crash interrupted the checkpoint that was
	// writing it — GC runs strictly after completion); anything else that
	// fails to decode is corruption.
	chain := []uint64{baseGen}
	maxWal := baseGen
	for _, g := range walGens {
		if g > maxWal {
			maxWal = g
		}
	}
	chainDeltas := gensAbove(deltas, baseGen)
	for idx, g := range chainDeltas {
		path := filepath.Join(dir, deltaName(g))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		d, derr := DecodeDelta(path, raw)
		if derr != nil {
			if IsIncomplete(derr) && idx == len(chainDeltas)-1 {
				tip := chain[len(chain)-1]
				if walsCover(walSet, tip, maxWal) {
					lg.Printf("wal: dropping incomplete delta %s (%v) — its content is re-derivable from the retained logs", path, derr)
					_ = os.Remove(path)
					break
				}
				return nil, nil, &CorruptionError{File: path, Offset: 0, Record: 0,
					Detail: "incomplete delta is not covered by the retained logs; dropping it would lose data"}
			}
			if IsIncomplete(derr) {
				return nil, nil, &CorruptionError{File: path, Offset: 0, Record: 0,
					Detail: fmt.Sprintf("incomplete delta mid-chain (%v)", derr)}
			}
			return nil, nil, derr
		}
		if want := chain[len(chain)-1]; d.BaseGen != want {
			return nil, nil, &CorruptionError{File: path, Offset: 0, Record: 0,
				Detail: fmt.Sprintf("delta declares base generation %d, chain tip is %d", d.BaseGen, want)}
		}
		if err := ApplyDelta(base, d, obs); err != nil {
			return nil, nil, recordError(path, 0, 0, err)
		}
		chain = append(chain, g)
		rec.DeltasApplied++
	}

	// The chain is applied: everything from here on — the WAL tail now,
	// live mutations later — is not covered by any checkpoint yet, so dirty
	// tracking starts exactly here.
	base.DB.EnableDirtyTracking()

	if m := readManifest(dir); m != nil && !gensEqual(m, chain) {
		lg.Printf("wal: manifest chain %v disagrees with derived chain %v; trusting the files", m, chain)
	}

	// Replay every log from the chain tip through the newest generation. A
	// generation gap, or a torn tail anywhere but the final log, means
	// records are missing from the middle of history — hard failure. (A
	// rotated log was synced before its successor accepted a single record,
	// so a mid-sequence torn tail can only be corruption.)
	tip := chain[len(chain)-1]
	lastCount := 0
	for g := tip; g <= maxWal; g++ {
		walPath := filepath.Join(dir, walName(g))
		if !walSet[g] && g < maxWal {
			return nil, nil, fmt.Errorf("wal: log generation %d missing while %s exists; refusing to skip a gap in history", g, walName(maxWal))
		}
		info, err := ReplayFile(walPath, func(r Record) error { return applyObserved(r, base, obs) })
		if err != nil {
			return nil, nil, err
		}
		if info.TornBytes > 0 && g < maxWal {
			return nil, nil, &CorruptionError{File: walPath, Offset: 0, Record: info.Records,
				Detail: fmt.Sprintf("torn tail in rotated log (%s); later generations exist", info.TornDetail)}
		}
		if info.TornBytes > 0 {
			lg.Printf("wal: truncated torn tail of %s: %d byte(s) dropped (%s) — last write did not survive the crash",
				walPath, info.TornBytes, info.TornDetail)
		}
		rec.WALRecords += info.Records
		rec.TornBytes += info.TornBytes
		lastCount = info.Records
	}

	w, err := openWriter(filepath.Join(dir, walName(maxWal)), cfg.Fsync, cfg.FsyncInterval)
	if err != nil {
		return nil, nil, err
	}
	w.setReplayed(int64(lastCount))
	w.OnAdvance(s.notifySubs)
	s.gen = maxWal
	s.w = w
	s.chain = chain
	// The chain tip is the last checkpoint: date LastCkpt from its mtime
	// (falling back to now) so a configured CheckpointEvery does not see a
	// zero time and fire an immediate checkpoint on every boot, and Stats
	// reports a truthful last_checkpoint after restart.
	s.lastCkpt = time.Now()
	tipPath := rec.SnapshotPath
	if len(chain) > 1 {
		tipPath = filepath.Join(dir, deltaName(tip))
	}
	if st, err := os.Stat(tipPath); err == nil {
		s.lastCkpt = st.ModTime()
	}
	s.gcChainLocked()
	rec.Data = base
	rec.Gen = maxWal
	rec.ChainDepth = len(chain)
	rec.Duration = time.Since(start)
	return s, rec, nil
}

// walsCover reports whether every log generation in [from, to] is present.
func walsCover(walSet map[uint64]bool, from, to uint64) bool {
	for g := from; g <= to; g++ {
		if !walSet[g] {
			return false
		}
	}
	return true
}

// hasGenAbove reports whether sorted gens contains an element > g.
func hasGenAbove(gens []uint64, g uint64) bool {
	return len(gensAbove(gens, g)) > 0
}

// gensAbove returns the suffix of sorted gens strictly above g.
func gensAbove(gens []uint64, g uint64) []uint64 {
	i := sort.Search(len(gens), func(i int) bool { return gens[i] > g })
	return gens[i:]
}

func gensEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Initialize seeds an empty directory: it writes the generation-1 snapshot
// of data and opens its WAL. Only valid after an Open that returned
// Recovered.Data == nil.
func (s *Store) Initialize(data *SnapshotData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil || s.gen != 0 {
		return fmt.Errorf("wal: store already initialized (generation %d)", s.gen)
	}
	if _, err := WriteSnapshot(s.dir, 1, data); err != nil {
		return err
	}
	w, err := openWriter(filepath.Join(s.dir, walName(1)), s.cfg.Fsync, s.cfg.FsyncInterval)
	if err != nil {
		return err
	}
	w.SetMetrics(s.metrics)
	w.OnAdvance(s.notifySubs)
	s.gen = 1
	s.w = w
	s.chain = []uint64{1}
	s.lastCkpt = time.Now()
	if data.DB != nil {
		// Everything after the seed snapshot belongs in the next
		// checkpoint's delta.
		data.DB.EnableDirtyTracking()
	}
	if err := writeManifest(s.dir, s.chain); err != nil {
		s.log.Printf("wal: cannot write manifest: %v", err)
	}
	return nil
}

// SetCommitGate installs (or, with nil, removes) the commit gate Append
// runs after each locally successful append. Safe to call concurrently
// with appends; an in-flight Append uses whichever gate it loads.
func (s *Store) SetCommitGate(g CommitGate) {
	if g == nil {
		s.commitGate.Store(nil)
		return
	}
	s.commitGate.Store(&g)
}

// Append logs one mutation record. With a commit gate installed, Append
// additionally blocks until the gate releases the record's position; a
// gate error is returned with the record already in the local log (see
// CommitGate).
func (s *Store) Append(r Record) error {
	return s.append(r.encode(make([]byte, 0, 64)))
}

// AppendRaw logs one already-encoded record payload verbatim — the
// follower's write-through path, which must keep its log byte-identical
// to the primary's.
func (s *Store) AppendRaw(payload []byte) error {
	return s.append(payload)
}

func (s *Store) append(payload []byte) error {
	s.mu.Lock()
	w := s.w
	gen := s.gen
	closed := s.closed
	fencedBy := s.fencedBy
	s.mu.Unlock()
	if closed || w == nil {
		return fmt.Errorf("wal: store is closed")
	}
	if fencedBy != 0 {
		// A deposed primary must never make another write durable: the
		// fence outranks even a caller that believes it is still primary.
		return fmt.Errorf("%w (deposed by epoch %d)", ErrFenced, fencedBy)
	}
	records, err := w.Append(payload)
	if err != nil {
		return err
	}
	if gp := s.commitGate.Load(); gp != nil {
		return (*gp)(gen, records)
	}
	return nil
}

// CheckpointHandle is an in-flight two-phase checkpoint: BeginCheckpoint
// rotated the log under the caller's mutation lock; exactly one of
// CompleteDelta, CompleteFull, or Abort finishes it off-lock.
type CheckpointHandle struct {
	s         *Store
	old       *Writer
	prevChain []uint64
	gen       uint64
	start     time.Time
}

// Gen returns the generation this checkpoint is creating.
func (h *CheckpointHandle) Gen() uint64 { return h.gen }

// PrevChain returns the checkpoint chain the rotation happened on top of.
func (h *CheckpointHandle) PrevChain() []uint64 {
	return append([]uint64(nil), h.prevChain...)
}

// BeginCheckpoint rotates the log to the next generation: it syncs the old
// log (so its durable frontier is final and a mid-sequence torn tail is
// provably corruption), opens the new generation's log, and swaps. This is
// the only part of a checkpoint that must run under the engine's mutation
// lock, and it is O(1) in database size — no snapshot bytes are written
// here. The caller then captures its dirty state under the same lock and
// completes the checkpoint off-lock via CompleteDelta or CompleteFull (or
// Abort, on a capture failure). A crash or failure between Begin and
// Complete leaves an extra log generation with no checkpoint, which
// recovery replays seamlessly.
func (s *Store) BeginCheckpoint() (*CheckpointHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.w == nil {
		return nil, fmt.Errorf("wal: store is closed")
	}
	start := time.Now()
	old := s.w
	oldGen := s.gen
	// Finalize the old log's durable frontier before its successor can
	// accept a record: recovery depends on rotated logs never having a
	// benign torn tail, and streamers depend on genEnds being final.
	if err := old.Sync(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsyncedLog, err)
	}
	next := s.gen + 1
	nw, err := openWriter(filepath.Join(s.dir, walName(next)), s.cfg.Fsync, s.cfg.FsyncInterval)
	if err != nil {
		return nil, err
	}
	nw.SetMetrics(s.metrics)
	nw.OnAdvance(s.notifySubs)
	s.w = nw
	s.gen = next
	r, b := old.DurableFrontier()
	if s.genEnds == nil {
		s.genEnds = make(map[uint64]genEnd)
	}
	s.genEnds[oldGen] = genEnd{records: r, bytes: b}
	for g := range s.genEnds {
		if g+16 <= next {
			delete(s.genEnds, g)
		}
	}
	h := &CheckpointHandle{
		s:         s,
		old:       old,
		prevChain: append([]uint64(nil), s.chain...),
		gen:       next,
		start:     start,
	}
	s.notifySubs()
	return h, nil
}

// finishOld closes the rotated-out writer (idempotent). Its durable
// frontier was already finalized and recorded by BeginCheckpoint, so this
// is just resource release — safe off-lock.
func (h *CheckpointHandle) finishOld() {
	if h.old != nil {
		_ = h.old.Close()
		h.old = nil
	}
}

// Abort abandons a begun checkpoint without writing one. The rotation
// stands (the new log keeps accumulating); the next checkpoint simply
// covers a longer stretch of history.
func (h *CheckpointHandle) Abort() { h.finishOld() }

// CompleteDelta finishes a begun checkpoint as an incremental delta:
// d (the dirty state captured under the rotation lock) is stamped with the
// chain tip as its base, written durably, and appended to the chain. Runs
// entirely off the mutation lock. On failure the rotation stands and the
// caller merges the captured dirty set back (the delta's content stays
// covered by the retained logs either way).
func (s *Store) CompleteDelta(h *CheckpointHandle, d *DeltaData) error {
	h.finishOld()
	d.BaseGen = h.prevChain[len(h.prevChain)-1]
	_, n, err := WriteDelta(s.dir, h.gen, d)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain = append(append([]uint64(nil), h.prevChain...), h.gen)
	s.deltaBytes += n
	s.checkpoints++
	s.lastCkpt = time.Now()
	if err := writeManifest(s.dir, s.chain); err != nil {
		s.log.Printf("wal: cannot write manifest: %v", err)
	}
	s.gcChainLocked()
	if s.metrics != nil {
		s.metrics.Checkpoints.Inc()
		s.metrics.CheckpointSecs.ObserveNanos(time.Since(h.start).Nanoseconds())
		s.metrics.DeltaCheckpoints.Inc()
		s.metrics.DeltaBytes.Add(uint64(n))
	}
	s.notifySubs()
	return nil
}

// CompleteFull finishes a begun checkpoint as a full snapshot (a chain
// compaction): data must be the database state at the rotation point —
// Synthesize builds exactly that from disk — and indexRaw, when non-nil,
// is persisted beside it as the generation's inverted-index snapshot. Runs
// entirely off the mutation lock.
func (s *Store) CompleteFull(h *CheckpointHandle, data *SnapshotData, indexRaw []byte) error {
	h.finishOld()
	if err := faultinject.Fire(faultinject.SiteSnapshotWrite); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	raw, err := EncodeSnapshot(data)
	if err != nil {
		return err
	}
	if _, err := WriteRawSnapshot(s.dir, h.gen, raw); err != nil {
		return err
	}
	if indexRaw != nil {
		if _, err := writeRawFile(s.dir, IndexSnapshotName(h.gen), indexRaw); err != nil {
			// The DB snapshot is already durable; a missing index file only
			// costs a rebuild on the next open.
			s.log.Printf("wal: cannot persist index snapshot for generation %d: %v", h.gen, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain = []uint64{h.gen}
	s.fullBytes += int64(len(raw))
	s.checkpoints++
	s.lastCkpt = time.Now()
	if err := writeManifest(s.dir, s.chain); err != nil {
		s.log.Printf("wal: cannot write manifest: %v", err)
	}
	s.gcChainLocked()
	if s.metrics != nil {
		s.metrics.Checkpoints.Inc()
		s.metrics.CheckpointSecs.ObserveNanos(time.Since(h.start).Nanoseconds())
	}
	s.notifySubs()
	return nil
}

// Synthesize reconstructs, purely from disk plus the captured delta, the
// database state at h's rotation point: the previous chain decoded and
// applied, then d on top. The captured dirty set covers everything after
// the chain tip (including records in logs the chain tip never saw), so no
// WAL replay is needed. Used by chain compaction to build the full
// snapshot without serializing the live database under the mutation lock.
func (s *Store) Synthesize(h *CheckpointHandle, d *DeltaData) (*SnapshotData, error) {
	data, err := s.decodeChain(h.prevChain, nil)
	if err != nil {
		return nil, err
	}
	dd := *d
	dd.BaseGen = h.prevChain[len(h.prevChain)-1]
	if err := ApplyDelta(data, &dd, nil); err != nil {
		return nil, err
	}
	return data, nil
}

// decodeChain loads and applies a checkpoint chain from disk: the base
// snapshot, then each delta in order, validating every link.
func (s *Store) decodeChain(chain []uint64, obs RecoveryObserver) (*SnapshotData, error) {
	basePath := filepath.Join(s.dir, snapshotName(chain[0]))
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	data, err := DecodeSnapshot(basePath, raw)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.RecoveryBase(chain[0], data.DB)
	}
	for i := 1; i < len(chain); i++ {
		path := filepath.Join(s.dir, deltaName(chain[i]))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		d, err := DecodeDelta(path, raw)
		if err != nil {
			return nil, err
		}
		if want := chain[i-1]; d.BaseGen != want {
			return nil, &CorruptionError{File: path, Offset: 0, Record: 0,
				Detail: fmt.Sprintf("delta declares base generation %d, chain predecessor is %d", d.BaseGen, want)}
		}
		if err := ApplyDelta(data, d, obs); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Checkpoint writes data as the next full snapshot generation, rotates the
// WAL, and garbage-collects every older generation — the original
// monolithic protocol, retained for the follower's rotation mirror, the
// engine's shutdown checkpoint, and any caller that can afford the pause.
// The caller must guarantee no Append runs concurrently. On failure the
// previous chain stays fully intact (modulo the log rotation, which
// recovery absorbs).
func (s *Store) Checkpoint(data *SnapshotData) error {
	return s.CheckpointFull(data, nil)
}

// CheckpointFull is Checkpoint with an optional persisted-index snapshot
// written beside the new full snapshot.
func (s *Store) CheckpointFull(data *SnapshotData, indexRaw []byte) error {
	h, err := s.BeginCheckpoint()
	if err != nil {
		if errors.Is(err, ErrUnsyncedLog) {
			// The active writer is poisoned: heal by superseding the log
			// entirely — full snapshot first, rotation only once it is
			// durable, so no crash leaves recovery needing the bad log.
			if err := s.checkpointSupersede(data, indexRaw); err != nil {
				return err
			}
			if data.DB != nil && data.DB.DirtyTrackingEnabled() {
				data.DB.CaptureDirty()
			}
			return nil
		}
		return err
	}
	if err := s.CompleteFull(h, data, indexRaw); err != nil {
		h.Abort()
		return err
	}
	// A full checkpoint covers everything: whatever dirty state accumulated
	// (on a follower mirroring rotations, or the engine's shutdown path) is
	// now redundant. The no-concurrent-append guarantee makes this safe.
	if data.DB != nil && data.DB.DirtyTrackingEnabled() {
		data.DB.CaptureDirty()
	}
	return nil
}

// checkpointSupersede is the poisoned-writer healing path: the active log
// cannot be synced, so the full snapshot of data is written and made
// durable FIRST — superseding the log entirely — and only then does the
// rotation abandon it. This is the original monolithic checkpoint ordering;
// a crash at any point leaves either the old state (snapshot not yet
// visible) or the new base (from which recovery never touches the bad log).
func (s *Store) checkpointSupersede(data *SnapshotData, indexRaw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.w == nil {
		return fmt.Errorf("wal: store is closed")
	}
	start := time.Now()
	if err := faultinject.Fire(faultinject.SiteSnapshotWrite); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	next := s.gen + 1
	raw, err := EncodeSnapshot(data)
	if err != nil {
		return err
	}
	if _, err := WriteRawSnapshot(s.dir, next, raw); err != nil {
		return err
	}
	if indexRaw != nil {
		if _, err := writeRawFile(s.dir, IndexSnapshotName(next), indexRaw); err != nil {
			s.log.Printf("wal: cannot persist index snapshot for generation %d: %v", next, err)
		}
	}
	nw, err := openWriter(filepath.Join(s.dir, walName(next)), s.cfg.Fsync, s.cfg.FsyncInterval)
	if err != nil {
		_ = os.Remove(filepath.Join(s.dir, snapshotName(next)))
		return err
	}
	nw.SetMetrics(s.metrics)
	nw.OnAdvance(s.notifySubs)
	old := s.w
	oldGen := s.gen
	_ = old.Close()
	r, b := old.DurableFrontier()
	if s.genEnds == nil {
		s.genEnds = make(map[uint64]genEnd)
	}
	s.genEnds[oldGen] = genEnd{records: r, bytes: b}
	s.w = nw
	s.gen = next
	s.chain = []uint64{next}
	s.fullBytes += int64(len(raw))
	s.checkpoints++
	s.lastCkpt = time.Now()
	if err := writeManifest(s.dir, s.chain); err != nil {
		s.log.Printf("wal: cannot write manifest: %v", err)
	}
	s.gcChainLocked()
	if s.metrics != nil {
		s.metrics.Checkpoints.Inc()
		s.metrics.CheckpointSecs.ObserveNanos(time.Since(start).Nanoseconds())
	}
	s.notifySubs()
	return nil
}

// InstallSnapshot makes raw (an already-encoded snapshot, as streamed from
// a replication primary) the store's entire state at generation gen: the
// snapshot is written durably, a fresh WAL is opened for gen, and every
// other generation's files are removed. This is the follower's bootstrap
// and re-bootstrap path — unlike Checkpoint, the generation number comes
// from the stream (it may jump forward past GC'd generations, or even
// backward after a stale-primary restart), so alignment with the primary's
// numbering is preserved. The caller must guarantee no Append runs
// concurrently.
func (s *Store) InstallSnapshot(gen uint64, raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	if gen == 0 {
		return fmt.Errorf("wal: cannot install snapshot at generation 0")
	}
	if _, err := WriteRawSnapshot(s.dir, gen, raw); err != nil {
		return err
	}
	// A WAL for this generation may already exist — a deposed primary
	// rejoining at the same generation number carries a diverged, unacked
	// suffix in it. The writer opens O_APPEND, so the stale file must go:
	// the installed snapshot plus the primary's re-streamed records are the
	// whole truth from here on.
	if err := os.Remove(filepath.Join(s.dir, walName(gen))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: install snapshot: removing stale log: %w", err)
	}
	nw, err := openWriter(filepath.Join(s.dir, walName(gen)), s.cfg.Fsync, s.cfg.FsyncInterval)
	if err != nil {
		_ = os.Remove(filepath.Join(s.dir, snapshotName(gen)))
		return err
	}
	nw.SetMetrics(s.metrics)
	nw.OnAdvance(s.notifySubs)
	if s.w != nil {
		_ = s.w.Close()
	}
	s.w = nw
	s.gen = gen
	s.chain = []uint64{gen}
	s.lastCkpt = time.Now()
	s.genEnds = nil
	if err := writeManifest(s.dir, s.chain); err != nil {
		s.log.Printf("wal: cannot write manifest: %v", err)
	}
	// Remove every other generation — including newer ones a stale-primary
	// re-bootstrap would otherwise leave for recovery to prefer, and any
	// delta or index files (the installed snapshot is a full base).
	entries, err := os.ReadDir(s.dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			var g uint64
			switch {
			case parseGen(name, "snap-", ".snap", &g), parseGen(name, "wal-", ".log", &g),
				parseGen(name, "delta-", ".dlt", &g), parseGen(name, "index-", ".pidx", &g):
				if g != gen || strings.HasPrefix(name, "delta-") || strings.HasPrefix(name, "index-") {
					if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
						s.log.Printf("wal: install snapshot: cannot remove %s: %v", name, err)
					}
				}
			}
		}
	}
	s.notifySubs()
	return nil
}

// gcChainLocked removes every checkpoint or log file the live chain no
// longer needs: snapshots and deltas outside the chain, logs below the
// chain tip, and index snapshots for any generation but the chain base.
func (s *Store) gcChainLocked() {
	if len(s.chain) == 0 {
		return
	}
	inChain := make(map[uint64]bool, len(s.chain))
	for _, g := range s.chain {
		inChain[g] = true
	}
	tip := s.chain[len(s.chain)-1]
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var g uint64
		drop := false
		switch {
		case parseGen(name, "snap-", ".snap", &g), parseGen(name, "delta-", ".dlt", &g):
			drop = !inChain[g]
		case parseGen(name, "wal-", ".log", &g):
			drop = g < tip
		case parseGen(name, "index-", ".pidx", &g):
			drop = g != s.chain[0]
		}
		if drop {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				s.log.Printf("wal: gc: cannot remove %s: %v", name, err)
			}
		}
	}
}

// FlattenedSnapshot returns full snapshot bytes for the state at the start
// of the active generation — what a bootstrapping follower must install so
// the primary can stream the active log's records on top. When the chain
// is a single full snapshot at the active generation this is a plain file
// read; otherwise the chain is decoded and the intermediate logs replayed
// in memory (the live files are never modified), and the result re-encoded.
// A concurrent checkpoint can GC chain files mid-read; the read retries on
// a fresh chain.
func (s *Store) FlattenedSnapshot() (uint64, []byte, error) {
	const retries = 5
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		s.mu.Lock()
		gen := s.gen
		chain := append([]uint64(nil), s.chain...)
		s.mu.Unlock()
		if len(chain) == 0 {
			return 0, nil, fmt.Errorf("wal: store not initialized")
		}
		if len(chain) == 1 && chain[0] == gen {
			raw, err := os.ReadFile(filepath.Join(s.dir, snapshotName(gen)))
			if err == nil {
				return gen, raw, nil
			}
			if !os.IsNotExist(err) {
				return 0, nil, err
			}
			lastErr = err
			continue // checkpoint raced us; re-read the chain
		}
		data, err := s.decodeChain(chain, nil)
		if err != nil {
			if os.IsNotExist(err) {
				lastErr = err
				continue
			}
			return 0, nil, err
		}
		// Replay the logs between the chain tip and the active generation.
		tip := chain[len(chain)-1]
		replayErr := error(nil)
		for g := tip; g < gen; g++ {
			raw, err := os.ReadFile(filepath.Join(s.dir, walName(g)))
			if err != nil {
				if os.IsNotExist(err) {
					// Rotated logs are only GC'd when the chain advances past
					// them; a missing one means we raced a checkpoint.
					replayErr = err
					break
				}
				return 0, nil, err
			}
			info, err := ReplayBytes(raw, func(r Record) error { return r.apply(data) })
			if err != nil {
				return 0, nil, err
			}
			if info.TornBytes > 0 {
				return 0, nil, &CorruptionError{File: filepath.Join(s.dir, walName(g)), Offset: 0, Record: info.Records,
					Detail: fmt.Sprintf("torn tail in rotated log (%s)", info.TornDetail)}
			}
		}
		if replayErr != nil {
			lastErr = replayErr
			continue
		}
		raw, err := EncodeSnapshot(data)
		if err != nil {
			return 0, nil, err
		}
		return gen, raw, nil
	}
	return 0, nil, fmt.Errorf("wal: flattened snapshot kept racing checkpoints: %w", lastErr)
}

// Sync forces the active log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Sync()
}

// Close flushes and closes the active log. The store refuses further
// appends and checkpoints afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	r, b := s.w.DurableFrontier()
	if s.genEnds == nil {
		s.genEnds = make(map[uint64]genEnd)
	}
	s.genEnds[s.gen] = genEnd{records: r, bytes: b}
	s.w = nil
	s.notifySubs()
	return err
}

// SetMetrics wires instruments into the store and its active writer.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
	if s.w != nil {
		s.w.SetMetrics(m)
	}
}

// Stats snapshots the store's counters.
type Stats struct {
	Dir         string    `json:"dir"`
	Fsync       string    `json:"fsync"`
	Generation  uint64    `json:"generation"`
	WALBytes    int64     `json:"wal_bytes"`
	WALRecords  int64     `json:"wal_records"`
	Checkpoints uint64    `json:"checkpoints"`
	LastCkpt    time.Time `json:"last_checkpoint"`
	// ChainDepth is the live checkpoint chain length (1 = just the full
	// base snapshot).
	ChainDepth int `json:"chain_depth"`
	// DeltaBytes / FullBytes are cumulative checkpoint bytes written by
	// kind since the store opened.
	DeltaBytes int64 `json:"delta_bytes_written"`
	FullBytes  int64 `json:"full_bytes_written"`
}

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:         s.dir,
		Fsync:       s.cfg.Fsync.String(),
		Generation:  s.gen,
		Checkpoints: s.checkpoints,
		LastCkpt:    s.lastCkpt,
		ChainDepth:  len(s.chain),
		DeltaBytes:  s.deltaBytes,
		FullBytes:   s.fullBytes,
	}
	if s.w != nil {
		st.WALBytes = s.w.Size()
		st.WALRecords = s.w.Records()
	}
	return st
}

// LogSize returns the active WAL's size in bytes (0 when closed).
func (s *Store) LogSize() int64 {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return 0
	}
	return w.Size()
}

// Generation returns the active log generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Chain returns the live checkpoint chain generations (base first).
func (s *Store) Chain() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.chain...)
}

// ChainDepth returns the live checkpoint chain length.
func (s *Store) ChainDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chain)
}

// ChainDeltaBytes returns the total on-disk size of the delta files in the
// live chain — the input to compaction-by-bytes policies. A file a
// concurrent compaction already removed counts as zero.
func (s *Store) ChainDeltaBytes() int64 {
	s.mu.Lock()
	chain := append([]uint64(nil), s.chain...)
	s.mu.Unlock()
	var total int64
	for i := 1; i < len(chain); i++ {
		if st, err := os.Stat(filepath.Join(s.dir, deltaName(chain[i]))); err == nil {
			total += st.Size()
		}
	}
	return total
}

// Frontier is the durable replication frontier: every record of generation
// Gen below Records (occupying Bytes bytes of its log) is safe to stream
// to a follower.
type Frontier struct {
	Gen     uint64
	Records int64
	Bytes   int64
}

// Frontier returns the current durable frontier. After Close it reports
// the final frontier of the last generation.
func (s *Store) Frontier() Frontier {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		if end, ok := s.genEnds[s.gen]; ok {
			return Frontier{Gen: s.gen, Records: end.records, Bytes: end.bytes}
		}
		return Frontier{Gen: s.gen}
	}
	r, b := s.w.DurableFrontier()
	return Frontier{Gen: s.gen, Records: r, Bytes: b}
}

// GenEnd returns the final durable record count of a rotated generation,
// or ok=false when gen is still active or rotated out of memory.
func (s *Store) GenEnd(gen uint64) (records int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen == s.gen && s.w != nil {
		return 0, false
	}
	end, ok := s.genEnds[gen]
	return end.records, ok
}

// Subscribe registers for durable-frontier advances: the returned channel
// receives a coalesced signal whenever the frontier moves or the
// generation rotates. The caller re-reads Frontier after each signal and
// must call cancel when done.
func (s *Store) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[int]chan struct{})
	}
	id := s.subID
	s.subID++
	s.subs[id] = ch
	s.subMu.Unlock()
	cancel := func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
	return ch, cancel
}

// notifySubs wakes every subscriber (non-blocking: a pending signal
// coalesces). Fired from writer advance hooks, rotation, and close.
func (s *Store) notifySubs() {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.subMu.Unlock()
}

// SnapshotPath returns the active generation and the path its full
// snapshot would live at. With delta checkpointing the file only exists
// when the chain is a single full snapshot at the active generation;
// callers that need guaranteed-loadable full bytes use FlattenedSnapshot.
func (s *Store) SnapshotPath() (uint64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, filepath.Join(s.dir, snapshotName(s.gen))
}

// IndexSnapshotPath returns the path of the persisted-index snapshot for
// the chain's base generation, and that generation.
func (s *Store) IndexSnapshotPath(gen uint64) string {
	return filepath.Join(s.dir, IndexSnapshotName(gen))
}

// WALPath returns the log file path of generation gen. The file may have
// been garbage-collected; callers handle open failure.
func (s *Store) WALPath(gen uint64) string {
	return filepath.Join(s.dir, walName(gen))
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// listGenerations returns the snapshot generations present, ascending.
func (s *Store) listGenerations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if parseGen(e.Name(), "snap-", ".snap", &g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// listDeltaGens returns the delta generations present, ascending.
func (s *Store) listDeltaGens() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if parseGen(e.Name(), "delta-", ".dlt", &g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// listWALGens returns the log generations present, ascending.
func (s *Store) listWALGens() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if parseGen(e.Name(), "wal-", ".log", &g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// walFiles lists the WAL file names present, sorted.
func (s *Store) walFiles() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		var g uint64
		if parseGen(e.Name(), "wal-", ".log", &g) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// parseGen extracts the 16-hex-digit generation from prefix<gen>suffix.
func parseGen(name, prefix, suffix string, out *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return false
	}
	var g uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return false
		}
		g = g<<4 | d
	}
	*out = g
	return true
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
