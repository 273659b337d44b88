package repl

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/wal"
)

// PrimaryConfig tunes the streaming side.
type PrimaryConfig struct {
	// HeartbeatEvery paces frontier heartbeats on idle links (0: 500ms).
	HeartbeatEvery time.Duration
	// WriteTimeout bounds each message write; a follower that stops
	// draining is disconnected rather than wedging the streamer (0: 10s).
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for the follower's Hello (0: 10s).
	HandshakeTimeout time.Duration
	// SyncReplicas is the number of durably-acking followers whose acks
	// each group commit must collect before
	// WaitCommitted releases it. 0 keeps replication fully asynchronous.
	SyncReplicas int
	// AckTimeout bounds each quorum wait (0: 2s). On expiry the commit
	// either fails with ErrQuorumLost or, with DegradeToAsync, succeeds
	// locally while the primary enters sticky degraded mode.
	AckTimeout time.Duration
	// DegradeToAsync trades consistency for availability: instead of
	// failing writes when the quorum is lost, commit locally and raise a
	// sticky degraded flag that clears once a quorum of acks reaches the
	// durable frontier again.
	DegradeToAsync bool
	// Epoch is the primary's fencing epoch, stamped on every stream
	// (Welcome, Record, Heartbeat). A follower arriving with a higher
	// epoch deposes this primary: the link is rejected, OnDeposed fires,
	// and the commit gate refuses every subsequent commit.
	Epoch uint64
	// OnDeposed fires (once) when a follower proves a newer primary exists
	// at the given epoch. The engine layer uses it to fence the WAL store
	// so no write can become durable after deposition.
	OnDeposed func(epoch uint64)
	// Logger receives per-link notes; nil uses log.Default().
	Logger *log.Logger
}

// ErrQuorumLost is returned (wrapped) by the commit gate when SyncReplicas
// followers fail to ack a group commit within AckTimeout and DegradeToAsync
// is off. The record IS durable on the primary's local WAL — the caller
// must not roll back applied state, only surface the reduced durability.
var ErrQuorumLost = errors.New("quorum lost")

// Metrics are the optional instruments a Primary ticks (obs instruments
// are nil-receiver no-ops).
type Metrics struct {
	SentRecords    *obs.Counter
	SentBytes      *obs.Counter
	SnapshotsSent  *obs.Counter
	Handshakes     *obs.Counter
	LinkErrors     *obs.Counter
	QuorumTimeouts *obs.Counter
}

// FollowerLinkStats describes one connected follower from the primary's
// side: how far its durable acks have reached and how stale they are.
type FollowerLinkStats struct {
	Remote     string `json:"remote"`
	Version    uint64 `json:"version"`
	AckGen     uint64 `json:"ack_gen"`
	AckRecords uint64 `json:"ack_records"`
	AckBytes   uint64 `json:"ack_bytes"`
	// AckLagRecords/AckLagBytes measure the gap between the primary's
	// durable frontier and the follower's last ack (frontier totals when
	// the ack is from an older generation — a lower bound).
	AckLagRecords int64 `json:"ack_lag_records"`
	AckLagBytes   int64 `json:"ack_lag_bytes"`
	// SecsSinceAck is -1 until the first ack arrives.
	SecsSinceAck float64 `json:"secs_since_ack"`
	// SyncEligible marks links that can count toward the quorum: every
	// link, since every follower acks. (Kept for the /api/repl schema.)
	SyncEligible bool `json:"sync_eligible"`
}

// PrimaryStats snapshots the streaming side's counters.
type PrimaryStats struct {
	Followers       int                 `json:"followers"`
	Handshakes      uint64              `json:"handshakes"`
	SentRecords     uint64              `json:"sent_records"`
	SentBytes       uint64              `json:"sent_bytes"`
	SnapshotsSent   uint64              `json:"snapshots_sent"`
	LinkErrors      uint64              `json:"link_errors"`
	SyncReplicas    int                 `json:"sync_replicas"`
	Degraded        bool                `json:"degraded"`
	QuorumWaits     uint64              `json:"quorum_waits"`
	QuorumTimeouts  uint64              `json:"quorum_timeouts"`
	Epoch           uint64              `json:"epoch"`
	DeposedBy       uint64              `json:"deposed_by,omitempty"`
	EpochRejections uint64              `json:"epoch_rejections,omitempty"`
	Links           []FollowerLinkStats `json:"links,omitempty"`
}

// Primary streams a Store's committed WAL frames to followers. Each
// accepted link gets its own goroutine that tails the durable frontier:
// snapshot bootstrap for a fresh (or fallen-behind) follower, then
// records, crossing generation rotations in-stream. The primary never
// blocks mutations: it reads the log files the store already wrote.
type Primary struct {
	store *wal.Store
	cfg   PrimaryConfig
	log   *log.Logger

	mu        sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{}
	links     map[net.Conn]*linkState
	ackCh     chan struct{} // closed+replaced on every ack (broadcast)
	degraded  bool          // sticky until a quorum of acks reaches the frontier
	deposedBy uint64        // sticky: epoch of the newer primary that deposed us
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup

	onDeposed sync.Once

	metrics atomic.Pointer[Metrics]

	handshakes      atomic.Uint64
	sentRecords     atomic.Uint64
	sentBytes       atomic.Uint64
	snapshots       atomic.Uint64
	linkErrors      atomic.Uint64
	quorumWaits     atomic.Uint64
	quorumTimeouts  atomic.Uint64
	epochRejections atomic.Uint64
}

// linkState is the primary-side view of one handshaken follower link,
// guarded by Primary.mu.
type linkState struct {
	remote     string
	ackGen     uint64
	ackRecords uint64
	ackBytes   uint64
	lastAck    time.Time
	hasAck     bool
}

// ackedAtLeast reports whether the link has durably acked (gen, records).
func (l *linkState) ackedAtLeast(gen uint64, records int64) bool {
	if !l.hasAck {
		return false
	}
	return l.ackGen > gen || (l.ackGen == gen && l.ackRecords >= uint64(records))
}

// NewPrimary wraps store for streaming; call Serve to start accepting.
func NewPrimary(store *wal.Store, cfg PrimaryConfig) *Primary {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.Default()
	}
	return &Primary{
		store: store,
		cfg:   cfg,
		log:   lg,
		conns: make(map[net.Conn]struct{}),
		links: make(map[net.Conn]*linkState),
		ackCh: make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// SetMetrics wires instruments in (nil allowed).
func (p *Primary) SetMetrics(m *Metrics) { p.metrics.Store(m) }

// Serve accepts follower links on ln until Close. It blocks; run it in a
// goroutine. Close makes it return nil.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("repl: primary is closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveConn(conn)
	}
}

// Addr returns the accept address (nil before Serve).
func (p *Primary) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Close stops accepting, severs every follower link, and waits for the
// per-link goroutines.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	ln := p.ln
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

// Stats snapshots the counters and per-link ack positions.
func (p *Primary) Stats() PrimaryStats {
	fr := p.store.Frontier()
	now := time.Now()
	p.mu.Lock()
	followers := len(p.conns)
	degraded := p.degraded
	deposedBy := p.deposedBy
	var links []FollowerLinkStats
	for _, l := range p.links {
		ls := FollowerLinkStats{
			Remote:       l.remote,
			Version:      ProtoVersion,
			AckGen:       l.ackGen,
			AckRecords:   l.ackRecords,
			AckBytes:     l.ackBytes,
			SecsSinceAck: -1,
			SyncEligible: true,
		}
		if l.hasAck {
			ls.SecsSinceAck = now.Sub(l.lastAck).Seconds()
		}
		if l.hasAck && l.ackGen == fr.Gen {
			ls.AckLagRecords = fr.Records - int64(l.ackRecords)
			ls.AckLagBytes = fr.Bytes - int64(l.ackBytes)
		} else {
			// No ack yet, or the ack predates the current generation:
			// report the whole current generation as the (lower-bound) lag.
			ls.AckLagRecords = fr.Records
			ls.AckLagBytes = fr.Bytes
		}
		links = append(links, ls)
	}
	p.mu.Unlock()
	return PrimaryStats{
		Followers:       followers,
		Handshakes:      p.handshakes.Load(),
		SentRecords:     p.sentRecords.Load(),
		SentBytes:       p.sentBytes.Load(),
		SnapshotsSent:   p.snapshots.Load(),
		LinkErrors:      p.linkErrors.Load(),
		SyncReplicas:    p.cfg.SyncReplicas,
		Degraded:        degraded,
		QuorumWaits:     p.quorumWaits.Load(),
		QuorumTimeouts:  p.quorumTimeouts.Load(),
		Epoch:           p.cfg.Epoch,
		DeposedBy:       deposedBy,
		EpochRejections: p.epochRejections.Load(),
		Links:           links,
	}
}

// DeposedBy returns the epoch of the newer primary that deposed this one,
// or 0 while this primary is still legitimate.
func (p *Primary) DeposedBy() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposedBy
}

// depose marks the primary permanently deposed by a newer epoch and fires
// OnDeposed exactly once (outside the lock — the engine's hook fences the
// WAL store, which takes its own locks).
func (p *Primary) depose(by uint64) {
	p.mu.Lock()
	if p.deposedBy == 0 || by > p.deposedBy {
		p.deposedBy = by
	}
	// Wake quorum waiters: they must fail with the fence, not idle out.
	close(p.ackCh)
	p.ackCh = make(chan struct{})
	p.mu.Unlock()
	p.onDeposed.Do(func() {
		p.log.Printf("repl: primary at epoch %d deposed by epoch %d; fencing", p.cfg.Epoch, by)
		if p.cfg.OnDeposed != nil {
			p.cfg.OnDeposed(by)
		}
	})
}

// Degraded reports the sticky degraded-mode flag.
func (p *Primary) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// quorumMetLocked counts followers whose acks have reached (gen, records).
// Callers hold p.mu.
func (p *Primary) quorumMetLocked(gen uint64, records int64) bool {
	n := 0
	for _, l := range p.links {
		if l.ackedAtLeast(gen, records) {
			n++
			if n >= p.cfg.SyncReplicas {
				return true
			}
		}
	}
	return p.cfg.SyncReplicas <= 0
}

// WaitCommitted is the store's commit gate: it blocks a locally-durable
// group commit until SyncReplicas followers have acked at-or-past it, the
// AckTimeout expires, or the primary closes. The record is already on the
// primary's own WAL when this runs, so every exit path leaves local state
// consistent; the error only reports reduced durability.
func (p *Primary) WaitCommitted(gen uint64, records int64) error {
	if p.cfg.SyncReplicas <= 0 {
		return nil
	}
	timer := time.NewTimer(p.cfg.AckTimeout)
	defer timer.Stop()
	p.quorumWaits.Add(1)
	p.mu.Lock()
	for {
		if p.deposedBy != 0 {
			// The commit gate is part of the fence: a deposed primary must
			// not release a commit even if a quorum of stale acks exists.
			by := p.deposedBy
			p.mu.Unlock()
			return fmt.Errorf("repl: %w (primary deposed by epoch %d)", wal.ErrFenced, by)
		}
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		if p.degraded && p.cfg.DegradeToAsync {
			p.mu.Unlock()
			return nil
		}
		if p.quorumMetLocked(gen, records) {
			p.mu.Unlock()
			return nil
		}
		ch := p.ackCh
		p.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return p.quorumTimeout(gen, records)
		case <-p.done:
			// Shutdown: the gate is torn down before the primary closes in
			// the engine; a straggler here must not fail the local commit.
			return nil
		}
		p.mu.Lock()
	}
}

// quorumTimeout handles an expired quorum wait: fail the write with
// ErrQuorumLost, or — with DegradeToAsync — commit locally and raise the
// sticky degraded flag.
func (p *Primary) quorumTimeout(gen uint64, records int64) error {
	p.quorumTimeouts.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.QuorumTimeouts.Inc()
	}
	if p.cfg.DegradeToAsync {
		p.mu.Lock()
		if !p.degraded {
			p.degraded = true
			p.log.Printf("repl: quorum of %d sync replica(s) not reached within %s; degrading to async replication (sticky until quorum heals)",
				p.cfg.SyncReplicas, p.cfg.AckTimeout)
		}
		p.mu.Unlock()
		return nil
	}
	return fmt.Errorf("repl: %w: %d sync replica(s) did not ack gen %d record %d within %s",
		ErrQuorumLost, p.cfg.SyncReplicas, gen, records, p.cfg.AckTimeout)
}

// recordAck folds a follower's ack into its link state, wakes quorum
// waiters, and heals degraded mode once a quorum of acks reaches the
// durable frontier.
func (p *Primary) recordAck(l *linkState, a Ack) {
	p.mu.Lock()
	// Acks are monotonic per link; ignore reordered/stale ones.
	if !l.hasAck || a.Gen > l.ackGen || (a.Gen == l.ackGen && a.Records >= l.ackRecords) {
		l.ackGen, l.ackRecords, l.ackBytes = a.Gen, a.Records, a.Bytes
		l.lastAck = time.Now()
		l.hasAck = true
	}
	close(p.ackCh)
	p.ackCh = make(chan struct{})
	healed := false
	if p.degraded {
		fr := p.store.Frontier()
		if p.quorumMetLocked(fr.Gen, fr.Records) {
			p.degraded = false
			healed = true
		}
	}
	p.mu.Unlock()
	if healed {
		p.log.Printf("repl: sync replica quorum healed; leaving degraded mode")
	}
}

// position is a follower's streaming cursor.
type position struct {
	gen uint64
	seq uint64 // next record index to send within gen
}

// errSnapshotNeeded makes the stream loop fall back to a snapshot
// bootstrap (the follower's position cannot be served from log files).
var errSnapshotNeeded = errors.New("repl: snapshot needed")

// serveConn runs one follower link to completion.
func (p *Primary) serveConn(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		_ = conn.Close()
		p.mu.Lock()
		delete(p.conns, conn)
		delete(p.links, conn)
		// A departing sync follower can change quorum math; wake waiters so
		// they re-check instead of idling on a channel nobody will close.
		close(p.ackCh)
		p.ackCh = make(chan struct{})
		p.mu.Unlock()
	}()
	if err := p.streamTo(conn); err != nil {
		p.linkErrors.Add(1)
		if m := p.metrics.Load(); m != nil {
			m.LinkErrors.Inc()
		}
		p.log.Printf("repl: follower %s: %v", conn.RemoteAddr(), err)
	}
}

// streamTo handshakes and then streams until the link drops or the
// primary closes.
func (p *Primary) streamTo(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(p.cfg.HandshakeTimeout))
	typ, body, err := readMsg(conn)
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if typ != MsgHello {
		return p.reject(conn, fmt.Sprintf("expected hello, got %s", typ))
	}
	hello, err := decodeHello(body)
	if err != nil {
		return p.reject(conn, err.Error())
	}
	if err := faultinject.Fire(faultinject.SiteReplHandshake); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	// Epoch fencing. A follower ahead of us proves a newer primary was
	// elected: we are deposed — permanently. A follower behind us may carry
	// a diverged, unacked WAL suffix from its previous life as the old
	// primary, so it is forced through a snapshot bootstrap, which
	// truncates that suffix.
	if err := faultinject.Fire(faultinject.SiteReplEpochCheck); err != nil {
		return fmt.Errorf("epoch check: %w", err)
	}
	if hello.Epoch > p.cfg.Epoch {
		p.epochRejections.Add(1)
		p.depose(hello.Epoch)
		return p.reject(conn, fmt.Sprintf("primary epoch %d is stale: follower is at epoch %d", p.cfg.Epoch, hello.Epoch))
	}
	forceBootstrap := hello.Epoch < p.cfg.Epoch
	if by := func() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.deposedBy }(); by != 0 {
		// Once deposed, this primary serves no one — not even same-epoch
		// followers, whose acks could otherwise release fenced commits.
		p.epochRejections.Add(1)
		return p.reject(conn, fmt.Sprintf("primary deposed by epoch %d", by))
	}
	_ = conn.SetReadDeadline(time.Time{})
	p.handshakes.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.Handshakes.Inc()
	}

	link := &linkState{remote: conn.RemoteAddr().String()}
	p.mu.Lock()
	p.links[conn] = link
	p.mu.Unlock()

	// Followers send Ack frames after applying+fsyncing records; a read
	// error (or any non-ack frame) severs the link, which also unblocks our
	// writes promptly when the peer just closes.
	go p.readAcks(conn, link)

	sub, cancel := p.store.Subscribe()
	defer cancel()

	// Resume is only possible within the current generation: checkpoints
	// garbage-collect older logs immediately. Gen 0 means "never
	// bootstrapped".
	fr := p.store.Frontier()
	hbMS := uint64(p.cfg.HeartbeatEvery.Milliseconds())
	pos := position{gen: hello.Gen, seq: hello.Records}
	canResume := !forceBootstrap && hello.Gen != 0 && hello.Gen == fr.Gen && int64(hello.Records) <= fr.Records
	if canResume {
		if err := p.send(conn, MsgWelcome, encodeWelcome(Welcome{Version: ProtoVersion, Gen: pos.gen, Records: pos.seq, HeartbeatMS: hbMS, Epoch: p.cfg.Epoch})); err != nil {
			return err
		}
	} else {
		gen, raw, err := p.loadSnapshot()
		if err != nil {
			return err
		}
		if err := p.send(conn, MsgWelcome, encodeWelcome(Welcome{Version: ProtoVersion, Snapshot: true, Gen: gen, HeartbeatMS: hbMS, Epoch: p.cfg.Epoch})); err != nil {
			return err
		}
		if err := p.sendSnapshot(conn, gen, raw); err != nil {
			return err
		}
		pos = position{gen: gen}
	}

	hb := time.NewTicker(p.cfg.HeartbeatEvery)
	defer hb.Stop()
	var f *os.File
	defer func() {
		if f != nil {
			_ = f.Close()
		}
	}()
	var frames *wal.FrameReader
	for {
		var err error
		fr := p.store.Frontier()
		// How far does pos.gen go? Up to the live frontier while it is the
		// current generation; to its recorded end once rotated away.
		limit := int64(-1)
		rotated := false
		if fr.Gen == pos.gen {
			limit = fr.Records
		} else if fr.Gen > pos.gen {
			if end, ok := p.store.GenEnd(pos.gen); ok {
				limit, rotated = end, true
			}
		}
		if limit < 0 || int64(pos.seq) > limit {
			// The follower's generation is gone (or ahead of us — a stale
			// primary restart); re-bootstrap from the current snapshot.
			err = errSnapshotNeeded
		} else if int64(pos.seq) < limit {
			if f == nil {
				path := p.store.WALPath(pos.gen)
				f, err = os.Open(path)
				if err != nil {
					f = nil
					err = errSnapshotNeeded
				} else {
					frames = wal.NewFrameReader(f, path)
					err = skipFrames(frames, pos.seq)
				}
			}
			if err == nil {
				err = p.sendRecords(conn, frames, &pos, limit, fr)
			}
		}
		if err == nil && rotated && int64(pos.seq) == limit {
			// End of a rotated generation: cross into the next one. Its
			// snapshot equals "previous snapshot + every record just sent",
			// so a caught-up follower needs no re-bootstrap.
			pos.gen++
			pos.seq = 0
			if f != nil {
				_ = f.Close()
				f, frames = nil, nil
			}
			continue
		}
		if errors.Is(err, errSnapshotNeeded) {
			if f != nil {
				_ = f.Close()
				f, frames = nil, nil
			}
			gen, raw, lerr := p.loadSnapshot()
			if lerr != nil {
				return lerr
			}
			if err := p.sendSnapshot(conn, gen, raw); err != nil {
				return err
			}
			pos = position{gen: gen}
			continue
		}
		if err != nil {
			return err
		}
		// Caught up: wait for the frontier to move, heartbeating so the
		// follower's lag view stays fresh on an idle link.
		select {
		case <-sub:
		case <-hb.C:
			fr := p.store.Frontier()
			if err := p.send(conn, MsgHeartbeat, encodeHeartbeat(Heartbeat{
				FrontierGen:     fr.Gen,
				FrontierRecords: uint64(fr.Records),
				FrontierBytes:   uint64(fr.Bytes),
				Epoch:           p.cfg.Epoch,
			})); err != nil {
				return err
			}
		case <-p.done:
			return nil
		}
	}
}

// readAcks drains the follower→primary half of the link, folding Ack
// frames into the quorum state. Any read error, decode error, or
// unexpected frame type severs the link (closing conn also unblocks the
// stream side's writes).
func (p *Primary) readAcks(conn net.Conn, link *linkState) {
	defer func() { _ = conn.Close() }()
	for {
		if err := faultinject.Fire(faultinject.SiteReplAckRecv); err != nil {
			return
		}
		typ, body, err := readMsg(conn)
		if err != nil {
			return
		}
		if typ != MsgAck {
			p.log.Printf("repl: follower %s sent unexpected %s frame; dropping link", link.remote, typ)
			return
		}
		ack, err := decodeAck(body)
		if err != nil {
			p.log.Printf("repl: follower %s: %v; dropping link", link.remote, err)
			return
		}
		p.recordAck(link, ack)
	}
}

// sendRecords streams frames [pos.seq, limit) of pos.gen.
func (p *Primary) sendRecords(conn net.Conn, frames *wal.FrameReader, pos *position, limit int64, fr wal.Frontier) error {
	for int64(pos.seq) < limit {
		payload, err := frames.Next()
		if err != nil {
			if err == io.EOF {
				// The file ends before the durable frontier: a poisoned
				// writer truncated its tail. Drop the link; the follower
				// reconnects and (after the healing checkpoint) re-bootstraps.
				return fmt.Errorf("wal %s ends at record %d, frontier claims %d", p.store.WALPath(pos.gen), pos.seq, limit)
			}
			return err
		}
		msg := RecordMsg{
			Gen:             pos.gen,
			Seq:             pos.seq,
			FrontierGen:     fr.Gen,
			FrontierRecords: uint64(fr.Records),
			FrontierBytes:   uint64(fr.Bytes),
			Epoch:           p.cfg.Epoch,
			Payload:         payload,
		}
		if err := p.send(conn, MsgRecord, encodeRecord(msg)); err != nil {
			return err
		}
		pos.seq++
		p.sentRecords.Add(1)
		if m := p.metrics.Load(); m != nil {
			m.SentRecords.Inc()
		}
	}
	return nil
}

// loadSnapshot produces full snapshot bytes for the state at the start of
// the active generation. With delta checkpointing the on-disk state is a
// chain (full snapshot + deltas) that need not reach the active
// generation, so the store flattens it — a plain file read when the chain
// is a single current full snapshot, an in-memory reconstruction otherwise.
// The wire protocol is untouched: followers always receive one full
// snapshot.
func (p *Primary) loadSnapshot() (uint64, []byte, error) {
	gen, raw, err := p.store.FlattenedSnapshot()
	if err != nil {
		return 0, nil, fmt.Errorf("load snapshot: %w", err)
	}
	return gen, raw, nil
}

// sendSnapshot chunks the snapshot over the link.
func (p *Primary) sendSnapshot(conn net.Conn, gen uint64, raw []byte) error {
	if err := p.send(conn, MsgSnapBegin, encodeSnapBegin(SnapBegin{Gen: gen, Size: uint64(len(raw))})); err != nil {
		return err
	}
	for off := 0; off < len(raw); off += snapChunkSize {
		end := min(off+snapChunkSize, len(raw))
		if err := p.send(conn, MsgSnapChunk, raw[off:end]); err != nil {
			return err
		}
	}
	if err := p.send(conn, MsgSnapEnd, nil); err != nil {
		return err
	}
	p.snapshots.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.SnapshotsSent.Inc()
	}
	return nil
}

// send writes one framed message, firing the repl.send fault site. An
// injected ErrInjectCorrupt flips a payload byte instead of failing — the
// frame goes out genuinely corrupted for the follower's checksums to
// catch.
func (p *Primary) send(conn net.Conn, typ MsgType, body []byte) error {
	corrupt := false
	if err := faultinject.Fire(faultinject.SiteReplSend); err != nil {
		if errors.Is(err, ErrInjectCorrupt) {
			corrupt = true
		} else {
			return fmt.Errorf("send %s: %w", typ, err)
		}
	}
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, byte(typ))
	payload = append(payload, body...)
	if len(payload) > maxMsgPayload {
		return &ProtocolError{Msg: typ, Detail: fmt.Sprintf("payload %d exceeds limit %d", len(payload), maxMsgPayload)}
	}
	frame := frameMsg(payload)
	if corrupt {
		frame[len(frame)-1] ^= 0x40
	}
	_ = conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	n, err := conn.Write(frame)
	p.sentBytes.Add(uint64(n))
	if m := p.metrics.Load(); m != nil {
		m.SentBytes.Add(uint64(n))
	}
	if err != nil {
		return fmt.Errorf("send %s: %w", typ, err)
	}
	return nil
}

// reject best-effort reports a handshake failure to the peer and returns
// it as the link error.
func (p *Primary) reject(conn net.Conn, detail string) error {
	_ = conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_ = writeMsg(conn, MsgError, []byte(detail))
	return fmt.Errorf("handshake: %s", detail)
}

// skipFrames advances past the n frames the follower already has.
func skipFrames(frames *wal.FrameReader, n uint64) error {
	for i := uint64(0); i < n; i++ {
		if _, err := frames.Next(); err != nil {
			if err == io.EOF {
				return errSnapshotNeeded
			}
			return err
		}
	}
	return nil
}
