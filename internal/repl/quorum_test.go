package repl

// Quorum unit tests: the commit gate (WaitCommitted) against real links —
// released by follower acks, failed with ErrQuorumLost when nobody acks,
// degraded-sticky-then-healed with DegradeToAsync, and negotiated down to
// async for protocol-v1 followers. Plus the follower-side link robustness
// satellites: stall detection on a frozen link and injectable reconnect
// jitter.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ackCallbacks extends the collector with a durable-ack report so it can
// count toward a sync quorum (the collector applies in memory, so its
// "durable" position is simply its applied position).
func ackCallbacks(col *collector) Callbacks {
	cb := col.callbacks()
	cb.Ack = func() (uint64, uint64, uint64) {
		col.mu.Lock()
		defer col.mu.Unlock()
		return col.pos.gen, col.pos.seq, 0
	}
	return cb
}

// startAckFollower runs an acking (v2) follower client against addr,
// returning the client and a stop func.
func startAckFollower(t *testing.T, addr string, col *collector) (*Client, func()) {
	t.Helper()
	client := New(Config{Addr: addr, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond, Logger: quietLogger()}, ackCallbacks(col))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); client.Run(ctx) }()
	stop := func() {
		cancel()
		<-done
	}
	return client, stop
}

// TestQuorumWaitReleasedByAck blocks a commit gate with no follower
// attached, then lets a durably-acking follower connect: the wait must
// release as soon as the ack covering the commit arrives, well before the
// ack timeout.
func TestQuorumWaitReleasedByAck(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPrimary(s, PrimaryConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		SyncReplicas:   1,
		AckTimeout:     30 * time.Second, // the test must finish by ack, not timeout
		Logger:         quietLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })

	fr := s.Frontier()
	gateDone := make(chan error, 1)
	go func() { gateDone <- p.WaitCommitted(fr.Gen, fr.Records) }()
	select {
	case err := <-gateDone:
		t.Fatalf("quorum wait released with no follower attached: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	col := &collector{}
	_, stop := startAckFollower(t, ln.Addr().String(), col)
	defer stop()

	select {
	case err := <-gateDone:
		if err != nil {
			t.Fatalf("quorum wait after follower ack: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quorum wait never released by the follower's ack")
	}

	// The link's ack position is visible in primary stats.
	waitFor(t, "link ack stats", func() bool {
		st := p.Stats()
		return len(st.Links) == 1 &&
			st.Links[0].AckGen == fr.Gen && st.Links[0].AckRecords >= uint64(fr.Records) &&
			st.Links[0].AckLagRecords == 0 && st.Links[0].SecsSinceAck >= 0
	})
	if st := p.Stats(); st.QuorumWaits == 0 || st.QuorumTimeouts != 0 || st.Degraded {
		t.Fatalf("quorum counters off: %+v", st)
	}
}

// TestQuorumLostWithoutFollower is the no-degrade contract: with nobody
// acking, the gate must fail with a typed, wrapped ErrQuorumLost after the
// ack timeout — never block a writer indefinitely.
func TestQuorumLostWithoutFollower(t *testing.T) {
	s := newTestStore(t)
	if err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(s, PrimaryConfig{SyncReplicas: 1, AckTimeout: 30 * time.Millisecond, Logger: quietLogger()})
	t.Cleanup(func() { _ = p.Close() })

	fr := s.Frontier()
	start := time.Now()
	err := p.WaitCommitted(fr.Gen, fr.Records)
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("want ErrQuorumLost, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("quorum wait took %s; the timeout did not bound it", elapsed)
	}
	if st := p.Stats(); st.QuorumTimeouts != 1 || st.Degraded {
		t.Fatalf("after quorum loss without degrade: %+v", st)
	}
}

// TestDegradeToAsyncStickyAndHeals: with DegradeToAsync, a lost quorum
// commits locally and raises the sticky degraded flag; every later commit
// passes without waiting; and the flag clears only once a follower's acks
// reach the durable frontier again.
func TestDegradeToAsyncStickyAndHeals(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 2; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPrimary(s, PrimaryConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		SyncReplicas:   1,
		AckTimeout:     30 * time.Millisecond,
		DegradeToAsync: true,
		Logger:         quietLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })

	fr := s.Frontier()
	if err := p.WaitCommitted(fr.Gen, fr.Records); err != nil {
		t.Fatalf("degrade-to-async commit failed: %v", err)
	}
	if !p.Degraded() {
		t.Fatal("degraded flag not raised after quorum timeout")
	}
	// Sticky: the next commit must pass immediately, not wait out a fresh
	// timeout window per write.
	start := time.Now()
	if err := p.WaitCommitted(fr.Gen, fr.Records); err != nil {
		t.Fatalf("commit while degraded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("degraded commit waited %s; degraded mode must skip the quorum wait", elapsed)
	}

	// A follower catches up and acks the frontier: the flag heals.
	col := &collector{}
	_, stop := startAckFollower(t, ln.Addr().String(), col)
	defer stop()
	waitFor(t, "degraded flag to heal", func() bool { return !p.Degraded() })
	if err := p.WaitCommitted(fr.Gen, fr.Records); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
}

// freezeProxy forwards TCP both ways but can freeze the primary→follower
// direction without closing the connection — the exact failure mode of a
// half-dead link (NAT timeout, pulled cable) that only a read deadline can
// detect.
type freezeProxy struct {
	ln     net.Listener
	target string
	frozen atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func newFreezeProxy(t *testing.T, target string) *freezeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &freezeProxy{ln: ln, target: target}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *freezeProxy) addr() string { return p.ln.Addr().String() }

func (p *freezeProxy) close() {
	_ = p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
}

func (p *freezeProxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		go func() { _, _ = io.Copy(up, down) }() // follower→primary: never frozen
		go p.copyFreezable(down, up)
	}
}

// copyFreezable forwards primary→follower until the link dies, pausing
// (without closing) while the proxy is frozen.
func (p *freezeProxy) copyFreezable(down, up net.Conn) {
	buf := make([]byte, 4096)
	for {
		if p.frozen.Load() {
			time.Sleep(time.Millisecond)
			continue
		}
		_ = up.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		n, err := up.Read(buf)
		if n > 0 {
			if p.frozen.Load() {
				continue // swallow bytes read during the freeze race
			}
			if _, werr := down.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
	}
}

// TestStallDetectionReconnects freezes an established link mid-stream: no
// FIN, no RST, just silence. The follower's rolling read deadline must
// notice the missing heartbeats, tear the session down, and redial; after
// the thaw it must converge on new records.
func TestStallDetectionReconnects(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startPrimary(t, s) // 20ms heartbeats
	proxy := newFreezeProxy(t, addr)

	col := &collector{}
	client := New(Config{
		Addr:         proxy.addr(),
		StallTimeout: 150 * time.Millisecond,
		BackoffMin:   time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Logger:       quietLogger(),
	}, col.callbacks())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, "catch-up through proxy", atLeast(col, 3))
	dials := client.Stats().Dials

	proxy.frozen.Store(true)
	waitFor(t, "stall-triggered redial", func() bool { return client.Stats().Dials > dials })
	proxy.frozen.Store(false)

	for i := 3; i < 6; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-thaw convergence", atLeast(col, 6))
	for i, rec := range col.recorded() {
		if want := testRecord(i); rec.Alias != want.Alias {
			t.Fatalf("record %d diverged across the stall: %q", i, rec.Alias)
		}
	}
}

// TestReconnectBackoffJitter injects a deterministic jitter source and
// checks every reconnect sleep consults it — the ±20% spread is what keeps
// a follower fleet from redialing a restarted primary in lockstep.
func TestReconnectBackoffJitter(t *testing.T) {
	// A listener that is immediately closed: every dial fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	var calls atomic.Uint64
	col := &collector{}
	client := New(Config{
		Addr:       addr,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		Jitter: func() float64 {
			calls.Add(1)
			return 0.5 // deterministic mid-range: sleep = backoff exactly
		},
		Logger: quietLogger(),
	}, col.callbacks())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, "jittered retries", func() bool { return calls.Load() >= 3 })
	if st := client.Stats(); st.Connected || st.LastError == "" {
		t.Fatalf("expected failed dials behind the jittered sleeps: %+v", st)
	}
}
