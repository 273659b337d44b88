package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReplFrameDecode drives the message reader and every body decoder
// over arbitrary bytes, exactly the way a follower session consumes its
// link. The invariants under fuzz: no panic, no unbounded allocation, and
// no silent acceptance — every malformed input must surface as io.EOF (a
// clean end) or an attributed error, because the follower's only response
// to either is to drop the link and reconnect. A decode that "succeeded"
// on corrupt bytes would be the one unrecoverable outcome: a diverged
// follower.
func FuzzReplFrameDecode(f *testing.F) {
	// Seed with one valid frame of each message type, plus a few broken
	// ones, so the fuzzer starts from coverage of every decode path.
	seed := func(typ MsgType, body []byte) []byte {
		var buf bytes.Buffer
		if err := writeMsg(&buf, typ, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(MsgHello, encodeHello(Hello{Version: ProtoVersion, Gen: 3, Records: 17})))
	f.Add(seed(MsgWelcome, encodeWelcome(Welcome{Version: ProtoVersion, Snapshot: true, Gen: 4})))
	f.Add(seed(MsgSnapBegin, encodeSnapBegin(SnapBegin{Gen: 4, Size: 1024})))
	f.Add(seed(MsgSnapChunk, bytes.Repeat([]byte("s"), 64)))
	f.Add(seed(MsgSnapEnd, nil))
	f.Add(seed(MsgRecord, encodeRecord(RecordMsg{Gen: 4, Seq: 9, FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512, Payload: []byte("record")})))
	f.Add(seed(MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512})))
	f.Add(seed(MsgError, []byte("injected")))
	f.Add(seed(MsgAck, encodeAck(Ack{Gen: 4, Records: 10, Bytes: 512})))
	f.Add(seed(MsgAck, encodeAck(Ack{})))
	// Epoch-stamped frames.
	f.Add(seed(MsgHello, encodeHello(Hello{Version: ProtoVersion, Gen: 3, Records: 17, Epoch: 7})))
	f.Add(seed(MsgWelcome, encodeWelcome(Welcome{Version: ProtoVersion, Gen: 4, Records: 9, HeartbeatMS: 500, Epoch: 7})))
	f.Add(seed(MsgRecord, encodeRecord(RecordMsg{Gen: 4, Seq: 9, FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512, Epoch: 7, Payload: []byte("record")})))
	f.Add(seed(MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512, Epoch: 7})))
	// The removed protocol versions' wire forms. A v1 hello and a v2 welcome
	// must be refused (the check below); an epoch-less v2 record or heartbeat
	// could only follow such a handshake, and must at least never panic.
	f.Add(seed(MsgHello, legacyBody("PRCREPL1", "", 1, 2, 5)))
	f.Add(seed(MsgWelcome, legacyBody("", "", 2, 0, 4, 9, 500)))
	f.Add(seed(MsgRecord, legacyBody("", "record", 4, 9, 4, 10, 512)))
	f.Add(seed(MsgHeartbeat, legacyBody("", "", 4, 10, 512)))
	// Ack interleaved with a heartbeat: exact boundary consumption both ways.
	f.Add(append(seed(MsgAck, encodeAck(Ack{Gen: 1, Records: 1, Bytes: 64})), seed(MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 1, FrontierRecords: 2}))...))
	// Two frames back to back: the reader must consume exact boundaries.
	f.Add(append(seed(MsgSnapEnd, nil), seed(MsgHeartbeat, encodeHeartbeat(Heartbeat{}))...))
	// Corrupt variants: flipped payload byte, flipped length, truncation.
	good := seed(MsgRecord, encodeRecord(RecordMsg{Gen: 1, Seq: 0, Payload: []byte("x")}))
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0x40
	f.Add(flip)
	hdr := append([]byte(nil), good...)
	hdr[0] ^= 0x01
	f.Add(hdr)
	f.Add(good[:len(good)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, body, err := readMsg(r)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return // clean end of stream
				}
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("unattributed read error: %v", err)
				}
				if pe.Detail == "" {
					t.Fatalf("protocol error with empty detail: %v", pe)
				}
				return // attributed: the follower reconnects
			}
			// A frame passed both CRCs; its body decoder must still never
			// panic, and must attribute any structural failure.
			var derr error
			switch typ {
			case MsgHello:
				var h Hello
				if h, derr = decodeHello(body); derr == nil && h.Version != ProtoVersion {
					t.Fatalf("accepted a version-%d hello", h.Version)
				}
			case MsgWelcome:
				var w Welcome
				if w, derr = decodeWelcome(body); derr == nil && w.Version != ProtoVersion {
					t.Fatalf("accepted a version-%d welcome", w.Version)
				}
			case MsgSnapBegin:
				_, derr = decodeSnapBegin(body)
			case MsgRecord:
				_, derr = decodeRecord(body)
			case MsgHeartbeat:
				_, derr = decodeHeartbeat(body)
			case MsgAck:
				_, derr = decodeAck(body)
			case MsgSnapChunk, MsgSnapEnd, MsgError:
				// raw bodies, nothing to decode
			default:
				// Unknown type: the session layer rejects it; fine here.
			}
			if derr != nil {
				var pe *ProtocolError
				if !errors.As(derr, &pe) {
					t.Fatalf("unattributed %s decode error: %v", typ, derr)
				}
				return
			}
		}
	})
}
