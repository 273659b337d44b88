package wal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"precis/internal/faultinject"
	"precis/internal/obs"
)

// FsyncPolicy says when appended WAL records are forced to stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways fsyncs before Append returns: a returned mutation is
	// durable. Concurrent appenders share one fsync (group commit).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer: a crash loses at most the
	// last interval's worth of mutations, all of them a clean log suffix.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache: fastest, loses the
	// most on power failure, still torn-write safe (the frame checksums
	// bound the damage to a truncated tail).
	FsyncNever
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// DefaultFsyncInterval paces FsyncInterval when no interval is configured.
const DefaultFsyncInterval = 50 * time.Millisecond

// Metrics are the optional instruments a Writer ticks. Every field is
// nil-safe (obs instruments are nil-receiver no-ops), so an un-instrumented
// writer pays only nil checks.
type Metrics struct {
	AppendedBytes   *obs.Counter
	AppendedRecords *obs.Counter
	Fsyncs          *obs.Counter
	FsyncSeconds    *obs.Histogram
	Checkpoints     *obs.Counter
	CheckpointSecs  *obs.Histogram
	// DeltaCheckpoints / DeltaBytes count the incremental-checkpoint
	// subset of checkpoints and the delta bytes they wrote.
	DeltaCheckpoints *obs.Counter
	DeltaBytes       *obs.Counter
}

// Writer is an append-only, checksummed log file. Appends are framed and
// written under one mutex; durability follows the fsync policy. With
// FsyncAlways, concurrent appenders batch into group commits: every waiter
// that arrives while an fsync is in flight is covered by the next one, so
// n concurrent appends cost far fewer than n fsyncs.
//
// A failed fsync poisons the writer: the un-durable tail (every frame
// written since the last successful fsync) is truncated off the file and
// all further appends are refused with a sticky error. This is what makes
// the engine's log-then-apply order sound — a record whose Append reported
// failure, and which the engine therefore never applied, can never be made
// durable by a later group commit or OS writeback, so crash recovery can
// never replay it (no phantom records).
type Writer struct {
	path     string
	policy   FsyncPolicy
	interval time.Duration

	mu       sync.Mutex // serializes file writes
	f        *os.File
	writeSeq atomic.Int64 // frames appended
	size     atomic.Int64 // file size in bytes
	records  atomic.Int64 // records appended this generation

	syncMu    sync.Mutex   // serializes fsyncs (the group-commit gate)
	syncedSeq atomic.Int64 // highest writeSeq known durable
	// syncedSize / syncedRecords mirror size / records at the last
	// successful fsync — the durable frontier a poisoning truncates back
	// to. Guarded by syncMu.
	syncedSize    int64
	syncedRecords int64

	// failed is the sticky poison error: once set (by a failed fsync) the
	// writer refuses every further append and sync. Checked under mu on the
	// append path so a poisoning's truncation cannot race a frame write.
	failed atomic.Pointer[error]

	// durableRecords / durableBytes publish the replication frontier: the
	// prefix of the file that is safe to stream to a follower. Under
	// FsyncNever they advance on append (durability is delegated to the OS,
	// so "written" is as committed as this policy gets); under the other
	// policies they advance on successful fsync. Both are monotonic; a
	// poisoning never rolls them back (the truncated tail was never
	// published, because publication happens only after the bytes are in
	// the file). onAdvance, when set, fires after every advance.
	durableRecords atomic.Int64
	durableBytes   atomic.Int64
	onAdvance      atomic.Pointer[func()]

	metrics atomic.Pointer[Metrics]

	stop chan struct{}
	done chan struct{}
}

// openWriter opens (or creates) path for appending under the given policy.
func openWriter(path string, policy FsyncPolicy, interval time.Duration) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultFsyncInterval
	}
	w := &Writer{path: path, policy: policy, interval: interval, f: f}
	w.size.Store(st.Size())
	// Whatever the file already holds survived a previous process (or was
	// just replayed by recovery): it is the initial durable frontier.
	w.syncedSize = st.Size()
	w.durableBytes.Store(st.Size())
	if policy == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// flushLoop is the FsyncInterval background flusher.
func (w *Writer) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			// A failed sync poisons the writer (sticky error, un-durable
			// tail truncated); the next Append surfaces it to the caller.
			_ = w.Sync()
		}
	}
}

// SetMetrics swaps the writer's instruments (nil allowed).
func (w *Writer) SetMetrics(m *Metrics) { w.metrics.Store(m) }

// setReplayed records how many records the freshly opened file already
// held when recovery replayed it; they are durable by definition.
func (w *Writer) setReplayed(records int64) {
	w.records.Store(records)
	w.durableRecords.Store(records)
}

// DurableFrontier returns the durable record count and byte size: the
// prefix of the file safe to stream to a follower.
func (w *Writer) DurableFrontier() (records, bytes int64) {
	return w.durableRecords.Load(), w.durableBytes.Load()
}

// OnAdvance registers fn to run whenever the durable frontier advances.
// fn must be non-blocking; it may fire from any appender or the flush
// loop.
func (w *Writer) OnAdvance(fn func()) { w.onAdvance.Store(&fn) }

// advanceDurable raises the published frontier to at least
// (records, bytes) — monotonic, safe from any goroutine — and fires the
// advance hook when it moved.
func (w *Writer) advanceDurable(records, bytes int64) {
	advanced := false
	for {
		cur := w.durableRecords.Load()
		if cur >= records {
			break
		}
		if w.durableRecords.CompareAndSwap(cur, records) {
			advanced = true
			break
		}
	}
	for {
		cur := w.durableBytes.Load()
		if cur >= bytes {
			break
		}
		if w.durableBytes.CompareAndSwap(cur, bytes) {
			advanced = true
			break
		}
	}
	if advanced {
		if fn := w.onAdvance.Load(); fn != nil {
			(*fn)()
		}
	}
}

// Size returns the current file size in bytes.
func (w *Writer) Size() int64 { return w.size.Load() }

// Records returns how many records this writer has appended.
func (w *Writer) Records() int64 { return w.records.Load() }

// Append frames payload, writes it, and — under FsyncAlways — blocks until
// it is durable. On success it returns the record count after this append
// (the record's 1-based index within the generation), which the store's
// commit gate uses as the position a replication quorum must ack. The
// error, if any, means the record did not and will not become durable: a
// write error leaves nothing behind, and an fsync error poisons the
// writer, truncating the un-durable tail (see Writer). The file is never
// left in a state recovery cannot parse (at worst a torn tail, which
// recovery truncates).
func (w *Writer) Append(payload []byte) (int64, error) {
	if err := faultinject.Fire(faultinject.SiteWALAppend); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	frame, err := appendFrame(make([]byte, 0, FrameOverhead+len(payload)), payload)
	if err != nil {
		return 0, fmt.Errorf("wal: append to %s: %w", w.path, err)
	}

	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append to closed writer %s", w.path)
	}
	// The poison check must happen under mu: poisoning truncates the file
	// under mu after setting the error, so any appender that gets past this
	// check either wrote before the truncation (its frame is cut, its
	// syncTo fails) or sees the error here and never writes.
	if ep := w.failed.Load(); ep != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: writer %s poisoned by earlier fsync failure: %w", w.path, *ep)
	}
	if _, err := w.f.Write(frame); err != nil {
		// A short write may have left a partial frame behind. Cut it off so
		// a later successful append cannot land after garbage (which would
		// turn a transient write error into mid-log corruption); if even
		// the truncate fails, poison the writer so nothing further is
		// written after the damaged tail.
		pre := w.size.Load()
		if terr := w.f.Truncate(pre); terr != nil {
			perr := fmt.Errorf("wal: append to %s failed (%v) and truncating the partial frame failed: %w", w.path, err, terr)
			w.failed.CompareAndSwap(nil, &perr)
		}
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append to %s: %w", w.path, err)
	}
	newSize := w.size.Add(int64(len(frame)))
	newRecords := w.records.Add(1)
	seq := w.writeSeq.Add(1)
	w.mu.Unlock()

	m := w.metrics.Load()
	if m != nil {
		m.AppendedBytes.Add(uint64(len(frame)))
		m.AppendedRecords.Inc()
	}
	if w.policy == FsyncAlways {
		return newRecords, w.syncTo(seq)
	}
	if w.policy == FsyncNever {
		// Never delegates durability to the OS, so the record is as
		// committed as it will ever be: publish it to replication now.
		// The frame is fully in the file (written under mu before the
		// counters we captured), so a streamer that sees this frontier can
		// read it back.
		w.advanceDurable(newRecords, newSize)
	}
	return newRecords, nil
}

// syncTo makes every frame up to seq durable, sharing fsyncs between
// concurrent callers: whoever wins the gate fsyncs on behalf of everyone
// whose frame was already written.
func (w *Writer) syncTo(seq int64) error {
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedSeq.Load() >= seq {
		return nil // a concurrent group commit covered us
	}
	return w.syncLocked()
}

// syncLocked fsyncs; callers hold syncMu. A failed fsync (injected or
// real) poisons the writer via poisonLocked, so the un-durable tail can
// never become durable behind the caller's back.
func (w *Writer) syncLocked() error {
	if ep := w.failed.Load(); ep != nil {
		return fmt.Errorf("wal: writer %s poisoned by earlier fsync failure: %w", w.path, *ep)
	}
	// Snapshot the write frontier before fsync: everything written before
	// the call is durable afterwards; frames that race in during the fsync
	// are not, and stay below the recorded frontier.
	w.mu.Lock()
	cur := w.writeSeq.Load()
	curSize := w.size.Load()
	curRecords := w.records.Load()
	f := w.f
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := faultinject.Fire(faultinject.SiteWALFsync); err != nil {
		return w.poisonLocked(fmt.Errorf("wal: fsync %s: %w", w.path, err))
	}
	start := time.Now()
	err := f.Sync()
	if m := w.metrics.Load(); m != nil {
		m.Fsyncs.Inc()
		m.FsyncSeconds.ObserveNanos(time.Since(start).Nanoseconds())
	}
	if err != nil {
		return w.poisonLocked(fmt.Errorf("wal: fsync %s: %w", w.path, err))
	}
	if w.syncedSeq.Load() < cur {
		w.syncedSeq.Store(cur)
		w.syncedSize = curSize
		w.syncedRecords = curRecords
	}
	w.advanceDurable(curRecords, curSize)
	return nil
}

// poisonLocked marks the writer permanently failed and truncates the file
// back to the durable frontier (the size at the last successful fsync), so
// no frame appended since can become durable through a later group commit
// or OS writeback. Frames in the cut tail belong either to FsyncAlways
// appenders — which are still blocked in syncTo, will observe the sticky
// error, and apply nothing — or to interval/never appenders, whose policy
// already tolerates losing a clean log suffix. Callers hold syncMu; the
// writer refuses every further append and sync until reopened (a failed
// fsync means the device may have dropped dirty pages, so retrying cannot
// be trusted — checkpointing into a fresh generation is the recovery
// path).
func (w *Writer) poisonLocked(cause error) error {
	if w.failed.CompareAndSwap(nil, &cause) {
		w.mu.Lock()
		if w.f != nil {
			if terr := w.f.Truncate(w.syncedSize); terr == nil {
				w.size.Store(w.syncedSize)
				w.records.Store(w.syncedRecords)
			}
			// If the truncate itself fails the tail may survive on disk;
			// the sticky error still stops every future append, and the
			// caller surfaces the failure, but recovery after a crash may
			// then replay records the engine never applied — nothing
			// more can be done against a device that refuses both fsync
			// and truncate.
		}
		w.mu.Unlock()
	}
	return cause
}

// Sync forces everything appended so far to stable storage.
func (w *Writer) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncLocked()
}

// Close flushes, stops the background flusher, and closes the file.
func (w *Writer) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	syncErr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return syncErr
	}
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// ReplayInfo summarizes one log replay.
type ReplayInfo struct {
	// Records is how many complete records were replayed.
	Records int
	// TornBytes is how many trailing bytes were cut (0 when the log ended
	// cleanly).
	TornBytes int64
	// TornDetail says what was missing from the torn frame.
	TornDetail string
}

// ReplayFile reads every record of the WAL at path, calling fn in order. A
// torn tail (partial final frame) is truncated off the file and reported in
// the returned info; corruption anywhere earlier — or a record that fails
// to decode or apply — aborts with a *CorruptionError naming file, offset,
// and record index. Missing files replay zero records (a crash can land
// between snapshot write and first append).
func ReplayFile(path string, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	torn, err := scanFrames(path, raw, func(i int, off int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return fmt.Errorf("apply %s: %w", rec.Op, err)
			}
		}
		info.Records++
		return nil
	})
	if err != nil {
		return info, err
	}
	if torn != nil {
		info.TornBytes = int64(len(raw)) - torn.Offset
		info.TornDetail = torn.Detail
		if err := os.Truncate(path, torn.Offset); err != nil {
			return info, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	return info, nil
}

// ReplayBytes is ReplayFile over in-memory bytes (no truncation side
// effect); the fuzz targets drive the decoder through it.
func ReplayBytes(raw []byte, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	torn, err := scanFrames("", raw, func(i int, off int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
		info.Records++
		return nil
	})
	if err != nil {
		return info, err
	}
	if torn != nil {
		info.TornBytes = int64(len(raw)) - torn.Offset
		info.TornDetail = torn.Detail
	}
	return info, nil
}
