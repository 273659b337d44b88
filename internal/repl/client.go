package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"precis/internal/faultinject"
)

// maxSnapshotSize caps an announced snapshot transfer; anything larger is
// treated as corruption rather than allocated.
const maxSnapshotSize = 1 << 30

// Callbacks are how the transport hands the stream to the follower
// engine. All callbacks run on one goroutine, in stream order; an error
// from Snapshot or Record severs the link, and the client reconnects
// from whatever Position then reports.
type Callbacks struct {
	// Position returns the follower's applied position, sent in Hello on
	// every (re)connect. Gen 0 requests a snapshot bootstrap.
	Position func() (gen, records uint64)
	// Snapshot delivers one complete snapshot transfer: the follower's
	// new base state at (gen, 0).
	Snapshot func(gen uint64, raw []byte) error
	// Record delivers one WAL frame payload at (gen, seq).
	Record func(gen, seq uint64, payload []byte) error
	// Frontier reports the primary's durable frontier, refreshed by every
	// record and heartbeat. Optional.
	Frontier func(gen, records, bytes uint64)
	// Ack returns the follower's durably-applied position, sent back to the
	// primary after every applied message so it can release quorum
	// waits. Gen 0 suppresses the ack. Optional; nil followers never ack
	// and thus never count toward a sync quorum.
	Ack func() (gen, records, bytes uint64)
	// Epoch returns the follower's fencing epoch, carried in Hello on every
	// (re)connect. Optional; nil sends 0.
	Epoch func() uint64
	// ObserveEpoch delivers every epoch the primary stamps on the stream
	// (Welcome, then each Record and Heartbeat). Returning an error severs
	// the link — this is how a follower refuses to follow a stale, deposed
	// primary. Optional.
	ObserveEpoch func(epoch uint64) error
}

// Config tunes the follower transport.
type Config struct {
	// Addr is the primary's replication address (host:port).
	Addr string
	// DialTimeout bounds each connection attempt (0: 5s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the wait for Welcome (0: 10s).
	HandshakeTimeout time.Duration
	// BackoffMin / BackoffMax bound the reconnect backoff (0: 20ms / 2s).
	// Backoff doubles per fruitless attempt and resets after any session
	// that delivered at least one message. Each sleep is jittered ±20% so
	// a follower fleet doesn't thundering-herd a restarted primary.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// StallTimeout is the rolling read deadline on an established stream:
	// a link that goes silent this long (no records, no heartbeats) is
	// torn down and redialed rather than hanging until TCP keepalive.
	// 0 derives it from the primary's advertised heartbeat interval
	// (3× HeartbeatMS, floored at 1s).
	StallTimeout time.Duration
	// Jitter returns a value in [0,1) used to spread reconnect sleeps;
	// nil uses math/rand. Injectable for deterministic backoff tests.
	Jitter func() float64
	// Logger receives reconnect notes; nil uses log.Default().
	Logger *log.Logger
}

// ClientStats snapshots the transport's counters.
type ClientStats struct {
	Connected     bool   `json:"connected"`
	Dials         uint64 `json:"dials"`
	Snapshots     uint64 `json:"snapshots_received"`
	Records       uint64 `json:"records_received"`
	BytesReceived uint64 `json:"bytes_received"`
	AcksSent      uint64 `json:"acks_sent"`
	LastError     string `json:"last_error,omitempty"`
}

// Client maintains one replication link to a primary: dial, handshake,
// apply the stream through Callbacks, and on any failure reconnect with
// exponential backoff, resuming from the follower's last applied
// position. It never guesses past an error — every corrupt or torn
// message tears the session down and restarts cleanly.
type Client struct {
	cfg Config
	cb  Callbacks
	log *log.Logger

	connected atomic.Bool
	dials     atomic.Uint64
	snapshots atomic.Uint64
	records   atomic.Uint64
	bytes     atomic.Uint64
	acks      atomic.Uint64

	errMu   sync.Mutex
	lastErr string
}

// New builds a client; call Run to start it.
func New(cfg Config, cb Callbacks) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Jitter == nil {
		cfg.Jitter = rand.Float64
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.Default()
	}
	return &Client{cfg: cfg, cb: cb, log: lg}
}

// Stats snapshots the transport counters.
func (c *Client) Stats() ClientStats {
	c.errMu.Lock()
	lastErr := c.lastErr
	c.errMu.Unlock()
	return ClientStats{
		Connected:     c.connected.Load(),
		Dials:         c.dials.Load(),
		Snapshots:     c.snapshots.Load(),
		Records:       c.records.Load(),
		BytesReceived: c.bytes.Load(),
		AcksSent:      c.acks.Load(),
		LastError:     lastErr,
	}
}

// Run drives the reconnect loop until ctx is cancelled.
func (c *Client) Run(ctx context.Context) {
	backoff := c.cfg.BackoffMin
	for {
		progress, err := c.session(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			c.errMu.Lock()
			c.lastErr = err.Error()
			c.errMu.Unlock()
			c.log.Printf("repl: follower link to %s: %v (reconnecting in %s)", c.cfg.Addr, err, backoff)
		}
		// ±20% jitter so a fleet of followers redialing a restarted
		// primary spreads out instead of arriving in lockstep.
		sleep := time.Duration(float64(backoff) * (0.8 + 0.4*c.cfg.Jitter()))
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if progress {
			backoff = c.cfg.BackoffMin
		} else if backoff *= 2; backoff > c.cfg.BackoffMax {
			backoff = c.cfg.BackoffMax
		}
	}
}

// session runs one connection to completion. progress reports whether at
// least one message was applied (resets the backoff).
func (c *Client) session(ctx context.Context) (progress bool, err error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	c.dials.Add(1)

	if err := faultinject.Fire(faultinject.SiteReplHandshake); err != nil {
		return false, fmt.Errorf("handshake: %w", err)
	}
	gen, records := c.cb.Position()
	var epoch uint64
	if c.cb.Epoch != nil {
		epoch = c.cb.Epoch()
	}
	_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	if err := writeMsg(conn, MsgHello, encodeHello(Hello{Version: ProtoVersion, Gen: gen, Records: records, Epoch: epoch})); err != nil {
		return false, fmt.Errorf("send hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	typ, body, err := c.read(conn)
	if err != nil {
		return false, fmt.Errorf("handshake read: %w", err)
	}
	if typ == MsgError {
		return false, fmt.Errorf("primary rejected handshake: %s", body)
	}
	if typ != MsgWelcome {
		return false, &ProtocolError{Msg: typ, Detail: "expected welcome"}
	}
	welcome, err := decodeWelcome(body)
	if err != nil {
		return false, err
	}
	if err := c.observeEpoch(welcome.Epoch); err != nil {
		return false, err
	}
	// Rolling stall deadline: a silently dead primary must look like a
	// link error, not a forever-blocked read. The primary heartbeats idle
	// links, so any healthy stream refreshes the deadline continuously.
	stall := c.cfg.StallTimeout
	if stall <= 0 {
		stall = 3 * time.Duration(welcome.HeartbeatMS) * time.Millisecond
		if stall < time.Second {
			stall = time.Second
		}
	}
	_ = conn.SetWriteDeadline(time.Time{})
	c.connected.Store(true)
	defer c.connected.Store(false)

	// Opening ack: tell the primary where our durable state already stands
	// so a caught-up reconnect releases quorum waits immediately.
	lastAck := position{}
	if err := c.maybeAck(conn, &lastAck); err != nil {
		return false, err
	}

	// Stream state: the next record position we will accept, plus the
	// in-flight snapshot transfer, if any. A Snapshot=false welcome
	// resumes exactly where we asked; Snapshot=true means a transfer
	// precedes any record.
	expect := position{gen: welcome.Gen, seq: welcome.Records}
	awaitSnap := welcome.Snapshot
	var snapBuf []byte
	var snapGen, snapSize uint64
	inSnap := false

	for {
		_ = conn.SetReadDeadline(time.Now().Add(stall))
		typ, body, err := c.read(conn)
		if err != nil {
			return progress, err
		}
		switch typ {
		case MsgSnapBegin:
			if inSnap {
				return progress, &ProtocolError{Msg: typ, Detail: "snapshot begun inside a snapshot"}
			}
			sb, err := decodeSnapBegin(body)
			if err != nil {
				return progress, err
			}
			if sb.Size > maxSnapshotSize {
				return progress, &ProtocolError{Msg: typ, Detail: fmt.Sprintf("snapshot size %d exceeds limit %d", sb.Size, maxSnapshotSize)}
			}
			inSnap, snapGen, snapSize = true, sb.Gen, sb.Size
			snapBuf = snapBuf[:0]
		case MsgSnapChunk:
			if !inSnap {
				return progress, &ProtocolError{Msg: typ, Detail: "snapshot chunk outside a snapshot"}
			}
			if uint64(len(snapBuf))+uint64(len(body)) > snapSize {
				return progress, &ProtocolError{Msg: typ, Detail: fmt.Sprintf("snapshot overflows announced size %d", snapSize)}
			}
			snapBuf = append(snapBuf, body...)
		case MsgSnapEnd:
			if !inSnap {
				return progress, &ProtocolError{Msg: typ, Detail: "snapshot end outside a snapshot"}
			}
			if uint64(len(snapBuf)) != snapSize {
				return progress, &ProtocolError{Msg: typ, Detail: fmt.Sprintf("snapshot ended at %d of %d bytes", len(snapBuf), snapSize)}
			}
			if err := c.cb.Snapshot(snapGen, snapBuf); err != nil {
				return progress, fmt.Errorf("apply snapshot: %w", err)
			}
			c.snapshots.Add(1)
			inSnap, awaitSnap = false, false
			expect = position{gen: snapGen}
			progress = true
			if err := c.maybeAck(conn, &lastAck); err != nil {
				return progress, err
			}
		case MsgRecord:
			if inSnap || awaitSnap {
				return progress, &ProtocolError{Msg: typ, Detail: "record during snapshot transfer"}
			}
			rm, err := decodeRecord(body)
			if err != nil {
				return progress, err
			}
			if err := c.observeEpoch(rm.Epoch); err != nil {
				return progress, err
			}
			switch {
			case rm.Gen == expect.gen && rm.Seq == expect.seq:
				// in sequence
			case rm.Gen == expect.gen+1 && rm.Seq == 0:
				// generation rotation: the primary streams the new log
				// only after delivering all of the old one.
				expect = position{gen: rm.Gen}
			default:
				return progress, &ProtocolError{Msg: typ, Detail: fmt.Sprintf(
					"out-of-order record (%d,%d), expected (%d,%d)", rm.Gen, rm.Seq, expect.gen, expect.seq)}
			}
			if err := c.cb.Record(rm.Gen, rm.Seq, rm.Payload); err != nil {
				return progress, fmt.Errorf("apply record (%d,%d): %w", rm.Gen, rm.Seq, err)
			}
			expect.seq++
			c.records.Add(1)
			if c.cb.Frontier != nil {
				c.cb.Frontier(rm.FrontierGen, rm.FrontierRecords, rm.FrontierBytes)
			}
			progress = true
			if err := c.maybeAck(conn, &lastAck); err != nil {
				return progress, err
			}
		case MsgHeartbeat:
			hb, err := decodeHeartbeat(body)
			if err != nil {
				return progress, err
			}
			if err := c.observeEpoch(hb.Epoch); err != nil {
				return progress, err
			}
			if c.cb.Frontier != nil {
				c.cb.Frontier(hb.FrontierGen, hb.FrontierRecords, hb.FrontierBytes)
			}
			// An interval-fsync follower's durable frontier advances between
			// records; heartbeats give those advances a ride back.
			if err := c.maybeAck(conn, &lastAck); err != nil {
				return progress, err
			}
		case MsgError:
			return progress, fmt.Errorf("primary error: %s", body)
		default:
			return progress, &ProtocolError{Msg: typ, Detail: "unexpected message"}
		}
	}
}

// observeEpoch forwards the stream's epoch stamp to the follower engine.
// An error severs the session before the message it rode in on is applied —
// a stale primary's records must never reach the follower's WAL.
func (c *Client) observeEpoch(epoch uint64) error {
	if c.cb.ObserveEpoch == nil {
		return nil
	}
	if err := c.cb.ObserveEpoch(epoch); err != nil {
		return fmt.Errorf("epoch check: %w", err)
	}
	return nil
}

// maybeAck reports the follower's durable position to the primary,
// skipping no-ops (nil callback, unbootstrapped follower, position
// unchanged since the last ack). Fires the repl.ack.send fault site; an
// injected ErrInjectCorrupt sends the frame genuinely corrupted for the
// primary's checksums to catch.
func (c *Client) maybeAck(conn net.Conn, last *position) error {
	if c.cb.Ack == nil {
		return nil
	}
	gen, records, bytes := c.cb.Ack()
	if gen == 0 || (last.gen == gen && last.seq == records) {
		return nil
	}
	corrupt := false
	if err := faultinject.Fire(faultinject.SiteReplAckSend); err != nil {
		if errors.Is(err, ErrInjectCorrupt) {
			corrupt = true
		} else {
			return fmt.Errorf("send ack: %w", err)
		}
	}
	payload := make([]byte, 0, 32)
	payload = append(payload, byte(MsgAck))
	payload = append(payload, encodeAck(Ack{Gen: gen, Records: records, Bytes: bytes})...)
	frame := frameMsg(payload)
	if corrupt {
		frame[len(frame)-1] ^= 0x40
	}
	_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	if _, err := conn.Write(frame); err != nil {
		return fmt.Errorf("send ack: %w", err)
	}
	*last = position{gen: gen, seq: records}
	c.acks.Add(1)
	return nil
}

// read fires the repl.recv fault site, then reads one verified message,
// counting wire bytes.
func (c *Client) read(conn net.Conn) (MsgType, []byte, error) {
	if err := faultinject.Fire(faultinject.SiteReplRecv); err != nil {
		return 0, nil, fmt.Errorf("recv: %w", err)
	}
	typ, body, err := readMsg(&countReader{r: conn, n: &c.bytes})
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, fmt.Errorf("primary closed the link: %w", err)
		}
		return 0, nil, err
	}
	return typ, body, nil
}

// countReader tallies bytes read into an atomic counter.
type countReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}
