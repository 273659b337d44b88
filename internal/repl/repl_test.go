package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"precis/internal/faultinject"
	"precis/internal/storage"
	"precis/internal/wal"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// --- protocol codec ---

func TestProtoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{Version: ProtoVersion, Gen: 7, Records: 900, Epoch: 4}
	welcome := Welcome{Version: ProtoVersion, Snapshot: true, Gen: 8, Records: 0, Epoch: 4}
	sb := SnapBegin{Gen: 8, Size: 4096}
	rec := RecordMsg{Gen: 8, Seq: 41, FrontierGen: 8, FrontierRecords: 100, FrontierBytes: 5000, Epoch: 4, Payload: []byte("payload-bytes")}
	hb := Heartbeat{FrontierGen: 8, FrontierRecords: 100, FrontierBytes: 5000, Epoch: 4}

	for _, m := range []struct {
		typ  MsgType
		body []byte
	}{
		{MsgHello, encodeHello(hello)},
		{MsgWelcome, encodeWelcome(welcome)},
		{MsgSnapBegin, encodeSnapBegin(sb)},
		{MsgSnapChunk, []byte("chunk")},
		{MsgSnapEnd, nil},
		{MsgRecord, encodeRecord(rec)},
		{MsgHeartbeat, encodeHeartbeat(hb)},
		{MsgError, []byte("boom")},
	} {
		if err := writeMsg(&buf, m.typ, m.body); err != nil {
			t.Fatalf("write %s: %v", m.typ, err)
		}
	}

	if typ, body, err := readMsg(&buf); err != nil || typ != MsgHello {
		t.Fatalf("read hello: %v (%s)", err, typ)
	} else if got, err := decodeHello(body); err != nil || got != hello {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgWelcome {
		t.Fatalf("read welcome: %v (%s)", err, typ)
	} else if got, err := decodeWelcome(body); err != nil || got != welcome {
		t.Fatalf("welcome round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapBegin {
		t.Fatalf("read snap-begin: %v (%s)", err, typ)
	} else if got, err := decodeSnapBegin(body); err != nil || got != sb {
		t.Fatalf("snap-begin round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapChunk || string(body) != "chunk" {
		t.Fatalf("snap-chunk round trip: %v %s %q", err, typ, body)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapEnd || len(body) != 0 {
		t.Fatalf("snap-end round trip: %v %s %q", err, typ, body)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgRecord {
		t.Fatalf("read record: %v (%s)", err, typ)
	} else {
		got, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("record decode: %v", err)
		}
		if got.Gen != rec.Gen || got.Seq != rec.Seq || got.FrontierGen != rec.FrontierGen ||
			got.FrontierRecords != rec.FrontierRecords || got.FrontierBytes != rec.FrontierBytes ||
			got.Epoch != rec.Epoch || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("record round trip: %+v", got)
		}
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgHeartbeat {
		t.Fatalf("read heartbeat: %v (%s)", err, typ)
	} else if got, err := decodeHeartbeat(body); err != nil || got != hb {
		t.Fatalf("heartbeat round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgError || string(body) != "boom" {
		t.Fatalf("error round trip: %v %s %q", err, typ, body)
	}
}

// TestProtoCorruptionAttributed flips every byte of a framed message; each
// flip must surface as a *ProtocolError (or a version/magic rejection at
// decode), never a silent success with different content.
func TestProtoCorruptionAttributed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, MsgRecord, encodeRecord(RecordMsg{Gen: 3, Seq: 9, Payload: []byte("precis")})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for off := 0; off < len(frame); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[off] ^= bit
			typ, body, err := readMsg(bytes.NewReader(mut))
			if err == nil {
				// The CRCs authenticate every byte; a flip that still reads
				// must decode to the identical message — impossible, so any
				// success is a hole in the checksums.
				t.Fatalf("flip at %d (bit %02x) read back cleanly as %s %q", off, bit, typ, body)
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("flip at %d (bit %02x): error is not a ProtocolError: %v", off, bit, err)
			}
		}
	}
}

func TestReadMsgTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 1})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, _, err := readMsg(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := readMsg(bytes.NewReader(frame[:cut]))
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("cut at %d: want ProtocolError, got %v", cut, err)
		}
	}
}

// legacyBody spells a pre-v3 message body the way the removed encoders did:
// an optional magic, then uvarints, then raw trailing bytes.
func legacyBody(magic string, tail string, vs ...uint64) []byte {
	return append(appendUvarints([]byte(magic), vs...), tail...)
}

// TestOldProtocolVersionsRefused: versions 1 and 2 carried no fencing
// epoch, so a peer speaking them would be a path around fencing. Their
// Hello and Welcome — and a PRCREPL3 one announcing any other version — must
// be refused, typed, by the decoders; a primary must answer such a Hello
// with an Error frame and stream nothing; a follower must drop a primary
// that welcomes it at an old version.
func TestOldProtocolVersionsRefused(t *testing.T) {
	for name, body := range map[string][]byte{
		"v1 hello":              legacyBody("PRCREPL1", "", 1, 2, 5),
		"v2 hello":              legacyBody("PRCREPL2", "", 2, 2, 5),
		"v3 magic, version 2":   legacyBody(Magic, "", 2, 2, 5, 1),
		"v3 magic, version 4":   legacyBody(Magic, "", 4, 2, 5, 1),
		"v3 magic, v2 body":     legacyBody(Magic, "", 2, 2, 5),
		"v3 hello, no epoch":    legacyBody(Magic, "", ProtoVersion, 2, 5),
		"v3 hello, extra field": legacyBody(Magic, "", ProtoVersion, 2, 5, 1, 1),
	} {
		var pe *ProtocolError
		if h, err := decodeHello(body); !errors.As(err, &pe) {
			t.Errorf("%s: decoded to %+v, %v; want a ProtocolError", name, h, err)
		}
	}
	for name, body := range map[string][]byte{
		"v1 welcome":            legacyBody("", "", 1, 0, 4, 9),
		"v2 welcome":            legacyBody("", "", 2, 0, 4, 9, 500),
		"v2 welcome, v3 length": legacyBody("", "", 2, 0, 4, 9, 500, 1),
		"v4 welcome":            legacyBody("", "", 4, 0, 4, 9, 500, 1),
	} {
		var pe *ProtocolError
		if w, err := decodeWelcome(body); !errors.As(err, &pe) {
			t.Errorf("%s: decoded to %+v, %v; want a ProtocolError", name, w, err)
		}
	}
	// A v2 record or heartbeat has no epoch field: under the one framing
	// left, the heartbeat is short and the record's payload shifts — it can
	// never decode to the same message.
	if hb, err := decodeHeartbeat(legacyBody("", "", 2, 6, 99)); err == nil {
		t.Errorf("v2 heartbeat decoded to %+v", hb)
	}
	if rec, err := decodeRecord(legacyBody("", "p", 2, 5, 2, 6, 99)); err == nil && string(rec.Payload) == "p" {
		t.Errorf("v2 record decoded with its payload intact: %+v", rec)
	}

	// On the wire: a primary refuses a v2 Hello with an Error frame.
	s := newTestStore(t)
	p, addr := startPrimary(t, s)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, MsgHello, legacyBody("PRCREPL2", "", 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, body, err := readMsg(conn); err != nil || typ != MsgError {
		t.Fatalf("primary answered a v2 hello with %s %q, %v; want an error frame", typ, body, err)
	}
	waitFor(t, "link error", func() bool { return p.Stats().LinkErrors == 1 })
	if st := p.Stats(); st.Handshakes != 0 || st.SentRecords != 0 {
		t.Fatalf("primary streamed to a v2 peer: %+v", st)
	}

	// And a follower refuses a primary that welcomes it at version 2.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := readMsg(c); err == nil {
				_ = writeMsg(c, MsgWelcome, legacyBody("", "", 2, 0, 1, 0, 500))
			}
			_ = c.Close()
		}
	}()
	col := &collector{}
	client := New(Config{Addr: ln.Addr().String(), BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond, Logger: quietLogger()}, col.callbacks())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); client.Run(ctx) }()
	waitFor(t, "follower to refuse the v2 welcome", func() bool {
		return strings.Contains(client.Stats().LastError, "protocol version 2 not supported")
	})
	cancel()
	<-done
	if st := client.Stats(); st.Connected || st.Records != 0 || st.Snapshots != 0 {
		t.Fatalf("follower followed a v2 primary: %+v", st)
	}
}

// --- end-to-end transport over a real Store ---

// testRecord logs one synonym record; synonyms are the simplest op with a
// payload we can assert on.
func testRecord(i int) wal.Record {
	return wal.Record{Op: wal.OpSynonym, Alias: fmt.Sprintf("alias-%d", i), Canonical: fmt.Sprintf("canon-%d", i)}
}

func newTestStore(t *testing.T) *wal.Store {
	t.Helper()
	s, rec, err := wal.Open(t.TempDir(), wal.Config{Fsync: wal.FsyncNever, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Data != nil {
		t.Fatal("fresh dir recovered data")
	}
	if err := s.Initialize(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// collector accumulates the streamed state like a follower would.
type collector struct {
	mu        sync.Mutex
	snapGen   uint64
	snapshots int
	records   []wal.Record
	pos       position
}

func (c *collector) callbacks() Callbacks {
	return Callbacks{
		Position: func() (uint64, uint64) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.pos.gen, c.pos.seq
		},
		Snapshot: func(gen uint64, raw []byte) error {
			if _, err := wal.DecodeSnapshot("<stream>", raw); err != nil {
				return err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.snapGen = gen
			c.snapshots++
			c.records = c.records[:0]
			c.pos = position{gen: gen}
			return nil
		},
		Record: func(gen, seq uint64, payload []byte) error {
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.records = append(c.records, rec)
			c.pos = position{gen: gen, seq: seq + 1}
			return nil
		},
	}
}

func (c *collector) snapshotCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots
}

func (c *collector) recorded() []wal.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wal.Record(nil), c.records...)
}

func startPrimary(t *testing.T, s *wal.Store) (*Primary, string) {
	t.Helper()
	p := NewPrimary(s, PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })
	return p, ln.Addr().String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamBootstrapLiveAndRotation(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	p, addr := startPrimary(t, s)
	col := &collector{}
	client := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan struct{})
	go func() { defer close(clientDone); client.Run(ctx) }()

	// Bootstrap: snapshot of gen 1, then the 5 preexisting records.
	waitFor(t, "bootstrap catch-up", atLeast(col, 5))
	if col.snapshotCount() != 1 {
		t.Fatalf("bootstrap took %d snapshots, want 1", col.snapshotCount())
	}

	// Live streaming.
	for i := 5; i < 8; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live records", atLeast(col, 8))

	// A checkpoint rotation mid-stream: the caught-up follower crosses it
	// without a new snapshot.
	if err := s.Checkpoint(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 11; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-rotation records", atLeast(col, 11))
	if col.snapshotCount() != 1 {
		t.Fatalf("rotation forced %d extra snapshot(s) on a caught-up follower", col.snapshotCount()-1)
	}
	got := col.recorded()
	for i, rec := range got {
		want := testRecord(i)
		if rec.Alias != want.Alias || rec.Canonical != want.Canonical {
			t.Fatalf("record %d: got %q->%q, want %q->%q", i, rec.Alias, rec.Canonical, want.Alias, want.Canonical)
		}
	}
	if st := client.Stats(); !st.Connected || st.Records == 0 || st.BytesReceived == 0 {
		t.Fatalf("client stats look dead: %+v", st)
	}
	if st := p.Stats(); st.Followers != 1 || st.SentRecords < 11 {
		t.Fatalf("primary stats: %+v", st)
	}

	cancel()
	<-clientDone
}

// atLeast is a waitFor condition: the collector holds >= n records.
func atLeast(col *collector, n int) func() bool {
	return func() bool { return len(col.recorded()) >= n }
}

// TestResumeFromPosition disconnects a follower, appends more records, and
// reconnects: the stream must resume exactly at the follower's position,
// with no snapshot and no duplicates.
func TestResumeFromPosition(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 4; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, s)
	_ = p

	col := &collector{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	c1 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done1 := make(chan struct{})
	go func() { defer close(done1); c1.Run(ctx1) }()
	waitFor(t, "first catch-up", atLeast(col, 4))
	cancel1()
	<-done1

	for i := 4; i < 9; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done2 := make(chan struct{})
	go func() { defer close(done2); c2.Run(ctx2) }()
	waitFor(t, "resume catch-up", atLeast(col, 9))
	if col.snapshotCount() != 1 {
		t.Fatalf("resume re-bootstrapped (%d snapshots)", col.snapshotCount())
	}
	for i, rec := range col.recorded() {
		if want := testRecord(i); rec.Alias != want.Alias {
			t.Fatalf("record %d after resume: %q", i, rec.Alias)
		}
	}
	cancel2()
	<-done2
}

// TestFallenBehindFollowerRebootstraps reconnects a follower whose
// generation was checkpointed away; it must get a fresh snapshot, not an
// error loop.
func TestFallenBehindFollowerRebootstraps(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, s)
	_ = p

	col := &collector{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	c1 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done1 := make(chan struct{})
	go func() { defer close(done1); c1.Run(ctx1) }()
	waitFor(t, "catch-up", atLeast(col, 3))
	cancel1()
	<-done1

	// Two rotations: the follower's generation file is gone.
	for r := 0; r < 2; r++ {
		if err := s.Checkpoint(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(testRecord(100)); err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done2 := make(chan struct{})
	go func() { defer close(done2); c2.Run(ctx2) }()
	waitFor(t, "re-bootstrap", func() bool {
		recs := col.recorded()
		return col.snapshotCount() == 2 && len(recs) == 1 && recs[0].Alias == "alias-100"
	})
	cancel2()
	<-done2
}

// TestLinkFaultsReconnectAndConverge severs the link via every repl.*
// fault site — including mid-frame wire corruption — and requires the
// follower to reconverge every time.
func TestLinkFaultsReconnectAndConverge(t *testing.T) {
	defer faultinject.Deactivate()
	errSever := errors.New("injected sever")
	cases := []struct {
		name string
		site string
		err  error
	}{
		{"send-sever", faultinject.SiteReplSend, errSever},
		{"send-corrupt", faultinject.SiteReplSend, ErrInjectCorrupt},
		{"recv-sever", faultinject.SiteReplRecv, errSever},
		{"handshake-sever", faultinject.SiteReplHandshake, errSever},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			for i := 0; i < 6; i++ {
				if err := s.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			_, addr := startPrimary(t, s)
			col := &collector{}
			client := New(Config{Addr: addr, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond, Logger: quietLogger()}, col.callbacks())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})

			// Fire on every 3rd site call, 10 times total, starting before
			// the first connect so even the bootstrap is interrupted.
			faultinject.Activate(faultinject.NewPlan().Set(tc.site, faultinject.Rule{Err: tc.err, Every: 3, Limit: 10}))
			go func() { defer close(done); client.Run(ctx) }()

			waitFor(t, "converge under "+tc.name, atLeast(col, 6))
			faultinject.Deactivate()
			for i := 6; i < 9; i++ {
				if err := s.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "post-fault records", atLeast(col, 9))
			for i, rec := range col.recorded() {
				if want := testRecord(i); rec.Alias != want.Alias {
					t.Fatalf("record %d diverged after %s: %q", i, tc.name, rec.Alias)
				}
			}
			cancel()
			<-done
		})
	}
}
