package precis

// WAL-streaming replication, engine layer. A primary engine (built with
// Open) can stream its committed WAL frames to followers with
// StartReplication; a follower engine (built with OpenFollower) bootstraps
// from the primary's newest snapshot, applies the live record stream
// through the same ID-stable path crash recovery uses, and serves
// read-only queries while refusing every mutation with ErrReadOnly. The
// transport (framing, handshake, reconnect, fault sites) lives in
// internal/repl; this file owns state application. Which of these an engine
// currently is, and what that lets it do, is the role's business (role.go).

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"precis/internal/faultinject"
	"precis/internal/repl"
	"precis/internal/schemagraph"
	"precis/internal/wal"
)

// ReplicaConfig tunes a follower engine.
type ReplicaConfig struct {
	// Addr is the primary's replication address (host:port). Required.
	Addr string
	// BootstrapTimeout bounds OpenFollower's wait for the first snapshot
	// to arrive and apply (0: 30s). Reconnects after bootstrap are
	// unbounded — the follower keeps retrying until Close.
	BootstrapTimeout time.Duration
	// DialTimeout, HandshakeTimeout, BackoffMin, BackoffMax tune the
	// transport; zero values use the internal/repl defaults.
	DialTimeout      time.Duration
	HandshakeTimeout time.Duration
	BackoffMin       time.Duration
	BackoffMax       time.Duration
	// Dir, when non-empty, makes the follower durable: every replicated
	// snapshot and record is written through a local WAL store under
	// cfg.Fsync before it is acked to the primary (an ack means "on
	// follower disk"), and a restarted follower recovers from this
	// directory and resumes from its local frontier instead of taking a
	// full snapshot. An empty Dir keeps the follower diskless; it still
	// acks (applied position), but an ack then only means "in follower
	// memory" — don't count such followers toward a durability quorum.
	Dir string
	// Fsync / FsyncInterval tune the local store's durability policy.
	Fsync         wal.FsyncPolicy
	FsyncInterval time.Duration
	// Logger receives link and bootstrap notes; nil uses log.Default().
	Logger *log.Logger
}

// FollowerStats reports a follower's replication position and lag.
type FollowerStats struct {
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	// Durable reports whether the follower writes replicated state through
	// a local WAL store before acking (ReplicaConfig.Dir was set).
	Durable bool `json:"durable"`
	// AcksSent counts durable-position acks reported to the primary.
	AcksSent uint64 `json:"acks_sent"`
	// AppliedGen / AppliedRecords are the follower's last applied LSN:
	// AppliedRecords frames of generation AppliedGen are in the engine.
	AppliedGen     uint64 `json:"applied_gen"`
	AppliedRecords uint64 `json:"applied_records"`
	// AppliedBytes mirrors the primary's WAL file offset for the applied
	// prefix of the current generation (frame headers included).
	AppliedBytes int64 `json:"applied_bytes"`
	// Frontier* echo the primary's durable frontier as last reported.
	FrontierGen     uint64 `json:"frontier_gen"`
	FrontierRecords uint64 `json:"frontier_records"`
	FrontierBytes   uint64 `json:"frontier_bytes"`
	// LagRecords / LagBytes are the distance to the primary's durable
	// frontier; -1 when unknown (mid-rotation, or before the first
	// frontier report).
	LagRecords int64 `json:"lag_records"`
	LagBytes   int64 `json:"lag_bytes"`
	// Snapshots counts full snapshot bootstraps (1 after a clean start;
	// more mean the follower fell behind a checkpoint and re-bootstrapped).
	Snapshots       uint64 `json:"snapshots_applied"`
	Dials           uint64 `json:"dials"`
	RecordsReceived uint64 `json:"records_received"`
	BytesReceived   uint64 `json:"bytes_received"`
	LastError       string `json:"last_error,omitempty"`
}

// ReplStats reports an engine's replication role and counters.
type ReplStats struct {
	// Role is "none", "primary", "follower", or "promoting" (a follower
	// mid-conversion to primary).
	Role string `json:"role"`
	// Epoch is the engine's fencing epoch (1 until the first failover).
	Epoch uint64 `json:"epoch"`
	// FencedBy is the epoch of the primary that deposed this engine; 0
	// when not fenced.
	FencedBy uint64                `json:"fenced_by,omitempty"`
	Primary  *repl.PrimaryStats    `json:"primary,omitempty"`
	Follower *FollowerStats        `json:"follower,omitempty"`
	Failover *repl.SupervisorStats `json:"failover,omitempty"`
}

// replicaState is the follower side's plumbing, held by the engine's role.
type replicaState struct {
	addr   string
	graph  *schemagraph.Graph
	client *repl.Client
	log    *log.Logger
	// store is the follower's local WAL store (nil when diskless). Only
	// the transport goroutine appends/installs/checkpoints; Frontier and
	// Stats are safe from any goroutine.
	store *wal.Store

	cancel        context.CancelFunc
	done          chan struct{}
	ready         chan struct{} // closed once the first snapshot built the engine
	stopOnce      sync.Once
	transportOnce sync.Once

	mu sync.Mutex
	// epoch is the fencing epoch of a diskless follower (a durable one
	// reads it from the store); 0 means 1.
	epoch uint64
	// eng and node (its single partition, applied to under eng.mu) are set
	// once, before ready closes, and afterwards used by the transport
	// goroutine only.
	eng  *Engine
	node *node
	// gen/records/appliedBytes are the applied position: records frames of
	// gen are in the engine, occupying appliedBytes of its WAL file.
	// Updated only AFTER the corresponding apply completes, so any
	// observer that reads a position is guaranteed the state includes it.
	gen, records uint64
	appliedBytes int64
	// frontier* are the primary's durable frontier as last reported; zero
	// until the first record or heartbeat.
	frontierGen, frontierRecords, frontierBytes uint64
	snapshots                                   uint64
}

// OpenFollower builds a read-only follower engine replicating from the
// primary at cfg.Addr. It dials, receives a full snapshot bootstrap,
// verifies it (join indexes, referential integrity, graph validation), and
// returns an engine already applying the live stream. The engine answers
// queries like any other but returns ErrReadOnly from every mutation; its
// state converges to the primary's durable frontier and survives link
// faults by reconnecting and resuming from the last applied position.
// Close stops replication (the in-memory state remains queryable).
func OpenFollower(g *schemagraph.Graph, cfg ReplicaConfig) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("precis: follower needs a schema graph")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("precis: follower needs a primary address")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	bootstrap := cfg.BootstrapTimeout
	if bootstrap <= 0 {
		bootstrap = 30 * time.Second
	}
	r := &replicaState{
		addr:  cfg.Addr,
		graph: g,
		log:   logger,
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	if cfg.Dir != "" {
		store, rec, err := wal.Open(cfg.Dir, wal.Config{
			Fsync:         cfg.Fsync,
			FsyncInterval: cfg.FsyncInterval,
			Logger:        logger,
		})
		if err != nil {
			return nil, fmt.Errorf("precis: follower store: %w", err)
		}
		r.store = store
		if rec.Data != nil {
			// Resume from local disk: build the engine from the recovered
			// snapshot+WAL and rejoin the stream at the local frontier — no
			// snapshot transfer needed unless the primary has since
			// checkpointed past us.
			fr := store.Frontier()
			fresh, err := load(rec.Data, g, true, nil)
			if err == nil {
				err = r.adopt(fresh, fr.Gen, uint64(fr.Records), fr.Bytes)
			}
			if err != nil {
				_ = store.Close()
				return nil, fmt.Errorf("precis: follower recovery: %w", err)
			}
			logger.Printf("repl: follower resumed from local store: generation %d, %d record(s) replayed, %d tuples",
				fr.Gen, rec.WALRecords, rec.Data.DB.TotalTuples())
		}
	}
	r.client = repl.New(repl.Config{
		Addr:             cfg.Addr,
		DialTimeout:      cfg.DialTimeout,
		HandshakeTimeout: cfg.HandshakeTimeout,
		BackoffMin:       cfg.BackoffMin,
		BackoffMax:       cfg.BackoffMax,
		Logger:           logger,
	}, repl.Callbacks{
		Position:     r.position,
		Snapshot:     r.onSnapshot,
		Record:       r.onRecord,
		Frontier:     r.onFrontier,
		Ack:          r.ackPosition,
		Epoch:        r.localEpoch,
		ObserveEpoch: r.observeEpoch,
	})
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.done)
		r.client.Run(ctx)
	}()
	select {
	case <-r.ready:
	case <-time.After(bootstrap):
		r.stop()
		st := r.client.Stats()
		if st.LastError != "" {
			return nil, fmt.Errorf("precis: follower bootstrap from %s timed out after %s (last error: %s)",
				cfg.Addr, bootstrap, st.LastError)
		}
		return nil, fmt.Errorf("precis: follower bootstrap from %s timed out after %s", cfg.Addr, bootstrap)
	}
	return r.eng, nil
}

// adopt makes a loaded partition the follower's state at applied position
// (gen, records, bytes): local recovery, the first streamed bootstrap and a
// re-bootstrap all end here. The first one builds the engine around it. A
// later one finds the engine serving queries: everything derived was built
// off-lock (by load, and the renderer here), and the swap happens under the
// engine mutex so no query ever sees a half-replaced state. Profiles,
// weights, cache configuration and instrumentation are local follower
// settings and survive it.
func (r *replicaState) adopt(fresh *node, gen, records uint64, bytes int64) error {
	if r.eng == nil {
		fresh.cfg.Logger = r.log // checkpointTo's, until Promote mounts the store
		eng, err := assemble(r.graph, fresh)
		if err != nil {
			return err
		}
		_ = eng.transition(roleEvent{kind: evFollow, follower: r}) // never refused
		r.eng, r.node = eng, fresh
		defer close(r.ready)
	} else {
		renderer, err := newRenderer(fresh.macroDefs)
		if err != nil {
			return err
		}
		// The node is swapped in place, not replaced: an engine's backend
		// never changes once assembled, so it is read without the lock.
		r.eng.mu.Lock()
		r.node.db, r.node.index, r.node.macroDefs = fresh.db, fresh.index, fresh.macroDefs
		r.eng.renderer = renderer
		r.eng.purgeCacheLocked()
		r.eng.mu.Unlock()
	}
	r.mu.Lock()
	r.gen, r.records, r.appliedBytes = gen, records, bytes
	r.mu.Unlock()
	return nil
}

// stop cancels the transport, waits for its goroutine, and closes the
// local store (no appends can race it once the transport is down);
// idempotent.
func (r *replicaState) stop() {
	r.stopOnce.Do(func() {
		r.stopTransport()
		if r.store != nil {
			_ = r.store.Close()
		}
	})
}

// stopTransport cancels the replication link and waits for its goroutine,
// leaving the local store open — Promote uses it to take ownership of the
// store; idempotent.
func (r *replicaState) stopTransport() {
	r.transportOnce.Do(func() {
		r.cancel()
		<-r.done
	})
}

// localEpoch reports the follower's fencing epoch: the store's on a
// durable follower, an in-memory shadow on a diskless one.
func (r *replicaState) localEpoch() uint64 {
	if r.store != nil {
		return r.store.Epoch()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch == 0 {
		return 1
	}
	return r.epoch
}

// observeEpoch handles every epoch stamp the primary puts on the stream
// (welcome, records, heartbeats). A newer epoch is adopted — durably, on a
// durable follower, which also clears any fence the directory carried from
// a deposed former life. An older epoch means the node we are connected to
// is a stale primary that lost a failover; refusing severs the link before
// its record is applied, and the reconnect loop finds the real primary.
func (r *replicaState) observeEpoch(remote uint64) error {
	local := r.localEpoch()
	if remote < local {
		return fmt.Errorf("primary is at stale epoch %d (local epoch %d): refusing its stream", remote, local)
	}
	if remote == local {
		return nil
	}
	if r.store != nil {
		if err := r.store.SetEpoch(remote); err != nil {
			return fmt.Errorf("adopting primary epoch %d: %w", remote, err)
		}
	} else {
		r.mu.Lock()
		r.epoch = remote
		r.mu.Unlock()
	}
	r.log.Printf("repl: follower adopted primary epoch %d (was %d)", remote, local)
	return nil
}

// position reports the applied LSN for the Hello of each (re)connect.
func (r *replicaState) position() (gen, records uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen, r.records
}

// ackPosition reports the position the follower may truthfully ack: the
// local store's durable frontier on a durable follower, the applied
// position on a diskless one.
func (r *replicaState) ackPosition() (gen, records, bytes uint64) {
	if r.store != nil {
		fr := r.store.Frontier()
		return fr.Gen, uint64(fr.Records), uint64(fr.Bytes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen, r.records, uint64(r.appliedBytes)
}

// onFrontier records the primary's durable frontier.
func (r *replicaState) onFrontier(gen, records, bytes uint64) {
	r.mu.Lock()
	r.frontierGen, r.frontierRecords, r.frontierBytes = gen, records, bytes
	r.mu.Unlock()
}

// onSnapshot applies one full snapshot transfer: decode, verify (load),
// make durable, adopt — building the engine on the first bootstrap, swapping
// its state wholesale when a follower fell behind a checkpoint rotation. Any
// error severs the link and the transport retries.
func (r *replicaState) onSnapshot(gen uint64, raw []byte) error {
	data, err := wal.DecodeSnapshot("repl-stream", raw)
	if err != nil {
		return fmt.Errorf("decode streamed snapshot: %w", err)
	}
	fresh, err := load(data, r.graph, true, nil)
	if err != nil {
		return fmt.Errorf("streamed snapshot: %w", err)
	}
	if r.store != nil {
		// Durability first: the snapshot must be on local disk before the
		// position it establishes can ever be acked.
		if err := r.store.InstallSnapshot(gen, raw); err != nil {
			return fmt.Errorf("install streamed snapshot: %w", err)
		}
		data.DB.EnableDirtyTracking() // the chain's base: what follows goes in the next delta
	}
	how := "re-bootstrapped (fell behind a checkpoint)"
	if r.eng == nil {
		how = "bootstrapped"
	}
	if err := r.adopt(fresh, gen, 0, 0); err != nil {
		return err
	}
	r.mu.Lock()
	r.snapshots++
	r.mu.Unlock()
	r.log.Printf("repl: follower %s from %s: generation %d, %d tuples, %d relations",
		how, r.addr, gen, data.DB.TotalTuples(), data.DB.NumRelations())
	return nil
}

// onRecord applies one streamed WAL frame, then advances the position.
// The order matters: position moves only after the apply, so a reader
// that observes position (g, n) is guaranteed the engine state contains
// exactly the first n records of generation g.
func (r *replicaState) onRecord(gen, seq uint64, payload []byte) error {
	rec, err := wal.DecodeRecord(payload)
	if err != nil {
		return fmt.Errorf("decode streamed record (%d,%d): %w", gen, seq, err)
	}
	if r.eng == nil {
		return fmt.Errorf("record (%d,%d) before first snapshot", gen, seq)
	}
	if r.store != nil {
		if err := r.persistRecord(gen, seq, payload); err != nil {
			return err
		}
	}
	// The record IS the WAL: it takes the commit path's applyLocked without
	// the gate, the check and the append, its ids as logged, so follower and
	// primary are tuple-id-identical. A record that fails to apply means
	// divergence (the cache is purged all the same).
	r.eng.mu.Lock()
	err = r.eng.applyLocked(r.node, rec)
	r.eng.mu.Unlock()
	if err != nil {
		return fmt.Errorf("apply streamed %s record (%d,%d): %w", rec.Op, gen, seq, err)
	}
	r.mu.Lock()
	if gen != r.gen {
		// Generation rotation: the stream crossed into a fresh WAL file.
		r.gen, r.records, r.appliedBytes = gen, 0, 0
	}
	r.records++
	r.appliedBytes += int64(len(payload)) + wal.FrameOverhead
	r.mu.Unlock()
	return nil
}

// persistRecord writes one streamed frame through the follower's local
// store before it is applied (and thus before it can be acked). The local
// log stays byte-identical to the primary's: frames are appended verbatim,
// and a generation rotation on the stream is mirrored by a local checkpoint
// (checkpointTo, as the engine's own) so the numbering never drifts.
// Re-delivered frames (a reconnect after the append but before the apply
// advanced the position) are skipped — the bytes are already durable.
func (r *replicaState) persistRecord(gen, seq uint64, payload []byte) error {
	st := r.store.Stats()
	if st.Generation == gen && st.WALRecords > int64(seq) {
		return nil
	}
	if st.Generation != gen {
		// The primary rotated generations at this boundary; its new
		// snapshot equals "old snapshot + every record already streamed",
		// which is exactly the engine state the follower holds right now.
		if st.Generation+1 != gen || seq != 0 {
			return fmt.Errorf("follower store at generation %d cannot persist record (%d,%d)", st.Generation, gen, seq)
		}
		r.node.ckptMu.Lock()
		r.eng.mu.Lock()
		err := r.node.checkpointTo(r.store)
		r.node.ckptMu.Unlock()
		if err != nil {
			return fmt.Errorf("follower checkpoint at rotation to generation %d: %w", gen, err)
		}
	}
	if err := faultinject.Fire(faultinject.SiteReplFollowerFsync); err != nil {
		return fmt.Errorf("follower wal append (%d,%d): %w", gen, seq, err)
	}
	if err := r.store.AppendRaw(payload); err != nil {
		return fmt.Errorf("follower wal append (%d,%d): %w", gen, seq, err)
	}
	return nil
}

// StartReplication turns a persistent engine into a replication primary:
// it begins accepting follower links on ln and streaming the WAL to them.
// The returned Primary is also reachable via ReplStats; Engine.Close
// closes it. Returns ErrNotPersistent on an in-memory engine (there is no
// WAL to stream) and an error if replication is already started.
func (e *Engine) StartReplication(ln net.Listener, cfg repl.PrimaryConfig) (*repl.Primary, error) {
	e.mu.Lock()
	n := e.backend.single()
	if n == nil || n.store == nil {
		e.mu.Unlock()
		if n != nil {
			return nil, ErrNotPersistent
		}
		// One WAL is one stream. Nothing structural stands in the way of a
		// stream per shard any more; until that exists a coordinator refuses.
		return nil, fmt.Errorf("precis: sharded engines do not support WAL replication yet (replicate per shard instead)")
	}
	store := n.store
	// The primary streams at the store's fencing epoch, and a deposition
	// (a follower proves a newer epoch exists) fences this engine so no
	// rolled-back write can ever become durable here.
	cfg.Epoch = store.Epoch()
	userDeposed := cfg.OnDeposed
	cfg.OnDeposed = func(by uint64) {
		e.fence(by)
		if userDeposed != nil {
			userDeposed(by)
		}
	}
	p := repl.NewPrimary(store, cfg)
	err := e.transition(roleEvent{kind: evStream, primary: p})
	reg := e.registry
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("precis: start replication: %w", err)
	}
	if cfg.SyncReplicas > 0 {
		// Synchronous mode: every group commit rides through the quorum
		// wait before the mutation returns. Engine.Close removes the gate
		// before closing the primary so shutdown never wedges a writer.
		store.SetCommitGate(p.WaitCommitted)
	}
	if reg != nil {
		instrumentReplPrimary(reg, p)
	}
	go func() {
		if err := p.Serve(ln); err != nil {
			cfgLog := cfg.Logger
			if cfgLog == nil {
				cfgLog = log.Default()
			}
			cfgLog.Printf("repl: primary accept loop: %v", err)
		}
	}()
	return p, nil
}

// ReplStats reports the engine's replication role and counters: zero-value
// ("none") on an unreplicated engine, the streaming counters on a primary,
// and position/lag on a follower. Epoch and FencedBy report the fencing
// state in every role.
func (e *Engine) ReplStats() ReplStats {
	e.mu.RLock()
	r := e.role
	var store *wal.Store
	if n := e.backend.single(); n != nil {
		store = n.store
	}
	e.mu.RUnlock()
	st := ReplStats{Role: "none", Epoch: 1, FencedBy: r.fencedBy}
	if r.failover != nil {
		fst := r.failover.Stats()
		st.Failover = &fst
	}
	switch {
	case r.follower != nil:
		fs := r.follower.followerStats()
		st.Role, st.Follower = "follower", &fs
		if r.kind == rolePromoting {
			st.Role = "promoting"
		}
		st.Epoch = r.follower.localEpoch()
	case r.primary != nil:
		pst := r.primary.Stats()
		st.Role, st.Primary = "primary", &pst
		st.Epoch = pst.Epoch
		if st.FencedBy == 0 {
			st.FencedBy = pst.DeposedBy
		}
	case store != nil:
		st.Epoch = store.Epoch()
	}
	return st
}

// fence durably marks this engine deposed by a newer primary at epoch by:
// every mutation from now on — and on any future Open of the same
// directory — fails with ErrFenced. Called from the replication primary's
// deposition hook; the in-memory fence is set before the durable one so no
// mutation can slip through while the file write is in flight.
func (e *Engine) fence(by uint64) {
	e.mu.Lock()
	_ = e.transition(roleEvent{kind: evFence, by: by}) // refused when already fenced at least as high
	n := e.backend.single()
	e.mu.Unlock()
	if err := n.store.Fence(by); err != nil {
		n.cfg.Logger.Printf("precis: persisting fence (deposed by epoch %d): %v", by, err)
	}
}

// PromoteConfig tunes Engine.Promote.
type PromoteConfig struct {
	// ListenAddr, when non-empty, starts a replication listener on the new
	// primary immediately after promotion, so surviving followers can
	// re-point at it.
	ListenAddr string
	// Primary configures that listener (quorum, heartbeat, limits); its
	// Epoch is overwritten with the post-promotion epoch.
	Primary repl.PrimaryConfig
	// CheckpointBytes / CheckpointEvery configure the promoted engine's
	// background checkpointer, exactly as in PersistConfig.
	CheckpointBytes int64
	CheckpointEvery time.Duration
	// Logger receives promotion notes; nil inherits the follower's logger.
	Logger *log.Logger
}

// Promote converts a durable follower, in place, into a writable primary:
// it stops the replication link, durably bumps the fencing epoch (so the
// old primary — alive, partitioned, or resurrected later — can never again
// make a write durable that this node hasn't seen), mounts the persistence
// layer on the follower's store, and drops the read-only gate. The engine,
// its caches, and its instrumentation survive; only the role changes.
// Returns the new epoch.
//
// Returns ErrNotFollower on a non-follower, ErrNotPersistent on a diskless
// follower (it holds no durable prefix to promote), and an error if the
// engine is concurrently closing. Safe to race Close: whichever takes the
// lifecycle lock second sees the other's completed state and fails typed.
func (e *Engine) Promote(cfg PromoteConfig) (uint64, error) {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	e.mu.Lock()
	err := e.transition(roleEvent{kind: evPromoteBegin})
	r := e.role.follower
	e.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("precis: promote: %w", err)
	}
	abort := func(err error) (uint64, error) {
		e.mu.Lock()
		_ = e.transition(roleEvent{kind: evPromoteAbort}) // lifeMu is held: still promoting
		e.mu.Unlock()
		return 0, fmt.Errorf("precis: promote: %w", err)
	}
	if err := faultinject.Fire(faultinject.SiteReplPromote); err != nil {
		return abort(err)
	}

	// Stop the stream first: nothing may append to the store between the
	// epoch bump and the role swap.
	r.stopTransport()

	epoch := r.store.Epoch() + 1
	if err := r.store.SetEpoch(epoch); err != nil {
		// The epoch file is unwritable: the follower remains a follower.
		return abort(err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = r.log
	}
	e.mu.Lock()
	_ = e.transition(roleEvent{kind: evPromoted, mount: PersistConfig{
		Dir:             r.store.Stats().Dir,
		CheckpointBytes: cfg.CheckpointBytes,
		CheckpointEvery: cfg.CheckpointEvery,
		Logger:          logger,
	}})
	e.mu.Unlock()
	r.node.startCheckpointer()
	logger.Printf("precis: promoted follower (of %s) to primary at epoch %d", r.addr, epoch)
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return epoch, fmt.Errorf("precis: promote: replication listener: %w", err)
		}
		if _, err := e.StartReplication(ln, cfg.Primary); err != nil {
			_ = ln.Close()
			return epoch, fmt.Errorf("precis: promote: %w", err)
		}
	}
	return epoch, nil
}

// AutoFailoverConfig arms supervised promotion on a durable follower.
type AutoFailoverConfig struct {
	// ID names this node in elections (default: Promote.ListenAddr, then
	// "follower"). The lexically smaller ID wins the final tiebreak, so
	// give every node a distinct one.
	ID string
	// HeartbeatTimeout / PollEvery tune the silence detector (defaults in
	// repl.SupervisorConfig).
	HeartbeatTimeout time.Duration
	PollEvery        time.Duration
	// Priority is this node's election weight among equally caught-up
	// candidates (higher wins).
	Priority int
	// Peers reports the other candidates at election time; nil means a
	// lone follower that elects itself.
	Peers func() []repl.Candidate
	// Promote configures the promotion performed if this node wins.
	Promote PromoteConfig
	// Logger receives detection and election notes; nil inherits the
	// follower's logger.
	Logger *log.Logger
}

// EnableAutoFailover starts a supervisor that watches the replication link
// and, when the primary has been silent for a full heartbeat timeout, runs
// a deterministic election (epoch, then applied LSN, then priority) and
// promotes this node if it wins. The supervisor stops itself after a
// successful promotion and is stopped by Close. Split-brain safety does
// NOT depend on the election being unanimous — a wrong winner is fenced by
// the epoch protocol — the election only decides who goes first.
func (e *Engine) EnableAutoFailover(cfg AutoFailoverConfig) (*repl.Supervisor, error) {
	id := cfg.ID
	if id == "" {
		id = cfg.Promote.ListenAddr
	}
	if id == "" {
		id = "follower"
	}
	e.mu.Lock()
	r := e.role.follower // nil unless following; the supervisor is only armed — and only ever runs — when it is not
	logger := cfg.Logger
	if logger == nil && r != nil {
		logger = r.log
	}
	sup := repl.NewSupervisor(repl.SupervisorConfig{
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		PollEvery:        cfg.PollEvery,
		Progress:         func() uint64 { return r.client.Stats().BytesReceived },
		Self: func() repl.Candidate {
			gen, records := r.position()
			return repl.Candidate{ID: id, Epoch: r.localEpoch(), Gen: gen, Records: records, Priority: cfg.Priority}
		},
		Peers: cfg.Peers,
		Promote: func() error {
			_, err := e.Promote(cfg.Promote)
			return err
		},
		Logger: logger,
	})
	err := e.transition(roleEvent{kind: evArm, failover: sup})
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("precis: auto-failover: %w", err)
	}
	sup.Start()
	return sup, nil
}

// followerStats assembles the position/lag view.
func (r *replicaState) followerStats() FollowerStats {
	cs := r.client.Stats()
	r.mu.Lock()
	fs := FollowerStats{
		Addr:            r.addr,
		Connected:       cs.Connected,
		Durable:         r.store != nil,
		AcksSent:        cs.AcksSent,
		AppliedGen:      r.gen,
		AppliedRecords:  r.records,
		AppliedBytes:    r.appliedBytes,
		FrontierGen:     r.frontierGen,
		FrontierRecords: r.frontierRecords,
		FrontierBytes:   r.frontierBytes,
		LagRecords:      -1,
		LagBytes:        -1,
		Snapshots:       r.snapshots,
		Dials:           cs.Dials,
		RecordsReceived: cs.Records,
		BytesReceived:   cs.BytesReceived,
		LastError:       cs.LastError,
	}
	if r.frontierGen == r.gen && r.frontierGen != 0 {
		fs.LagRecords = max(0, int64(r.frontierRecords)-int64(r.records))
		fs.LagBytes = max(0, int64(r.frontierBytes)-r.appliedBytes)
	}
	r.mu.Unlock()
	return fs
}
