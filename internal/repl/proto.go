// Package repl streams committed WAL frames from a primary engine to
// read-only followers over a length-prefixed TCP protocol.
//
// The wire format reuses the WAL's framing discipline: every message is a
// 12-byte header — payload length (u32 little endian), CRC32C of those 4
// length bytes, CRC32C of the payload — followed by the payload. The first
// payload byte is the message type; the rest is type-specific,
// varint-encoded. Checksums make every byte of the stream authenticated:
// corruption anywhere yields an attributed *ProtocolError, and the
// follower's response to any link error is always the same safe move —
// drop the connection and reconnect from its last applied position.
//
// A session: the follower dials and sends Hello carrying the protocol
// magic, version, and its applied position (generation, record count). The
// primary answers Welcome, either resuming the record stream from that
// position or announcing a snapshot bootstrap (SnapBegin / SnapChunk… /
// SnapEnd, after which records restart at the snapshot's generation,
// sequence 0). Record messages carry the generation, sequence, payload,
// and the primary's current durable frontier (so the follower can report
// lag); Heartbeat keeps the frontier fresh on an idle link. Generation
// rotations are implicit: after the last record of generation G, the next
// record arrives as (G+1, 0) — a fully caught-up follower crosses a
// checkpoint without re-bootstrapping.
//
// The follower acks: after every applied message it reports its
// durable-applied position in an Ack frame, and a primary configured with
// SyncReplicas > 0 releases each group commit only once a quorum of
// followers has acked at-or-past it.
//
// Every stream carries the failover fencing epoch: the follower's Hello
// carries its locally persisted epoch, and the primary stamps its own epoch
// on Welcome and on every Record and Heartbeat. Both sides compare on every
// frame: a primary that sees a follower at a higher epoch has been deposed
// (it rejects the link and fences itself); a follower that sees a primary at
// a lower epoch refuses to follow it; and a follower arriving with a lower
// epoch is forced through a snapshot bootstrap, which truncates any
// diverged, unacked WAL suffix it may carry from its previous life as a
// primary.
//
// There is one protocol version, 3 (PRCREPL3). Versions 1 and 2 carried no
// epoch — a peer speaking them would be a path around fencing — so a Hello
// or Welcome announcing anything else is refused at the handshake.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"precis/internal/wal"
)

// Magic opens every Hello; a server can reject a stray client on byte one.
const Magic = "PRCREPL3"

// ProtoVersion is the one protocol version this build speaks and accepts.
const ProtoVersion = 3

// checkVersion refuses a handshake message that announces another version.
func checkVersion(typ MsgType, v uint64) error {
	if v != ProtoVersion {
		return &ProtocolError{Msg: typ, Detail: fmt.Sprintf("protocol version %d not supported (want %d)", v, ProtoVersion)}
	}
	return nil
}

// maxMsgPayload caps one message. Snapshots are chunked well below it;
// WAL records are capped far lower by the WAL's own frame limit. A header
// announcing more than this is corruption, not a large message.
const maxMsgPayload = 64 << 20

// snapChunkSize is how much snapshot a single SnapChunk carries.
const snapChunkSize = 256 << 10

// MsgType tags a protocol message (first payload byte).
type MsgType uint8

// The protocol messages.
const (
	MsgHello MsgType = iota + 1
	MsgWelcome
	MsgSnapBegin
	MsgSnapChunk
	MsgSnapEnd
	MsgRecord
	MsgHeartbeat
	MsgError
	MsgAck
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgSnapBegin:
		return "snap-begin"
	case MsgSnapChunk:
		return "snap-chunk"
	case MsgSnapEnd:
		return "snap-end"
	case MsgRecord:
		return "record"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgError:
		return "error"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// ProtocolError attributes a wire-level failure: a bad checksum, a
// truncated field, an impossible length. It always means "drop the link
// and reconnect" — never "guess and continue".
type ProtocolError struct {
	Msg    MsgType // message being decoded (0 when the header itself failed)
	Detail string
}

func (e *ProtocolError) Error() string {
	if e.Msg == 0 {
		return fmt.Sprintf("repl: protocol error: %s", e.Detail)
	}
	return fmt.Sprintf("repl: protocol error in %s message: %s", e.Msg, e.Detail)
}

// ErrInjectCorrupt is a faultinject sentinel for the repl.send site: the
// send path, on seeing it, flips a byte of the frame instead of failing —
// producing genuine mid-frame wire corruption for the receiver to detect.
var ErrInjectCorrupt = errors.New("repl: inject wire corruption")

// Hello is the follower's opening message. Epoch is the follower's locally
// persisted fencing epoch: a primary seeing a higher epoch than its own has
// been deposed; one seeing a lower epoch forces a snapshot bootstrap to
// truncate any diverged suffix the follower carries.
type Hello struct {
	Version uint64
	Gen     uint64 // applied generation (0: nothing applied, bootstrap me)
	Records uint64 // records applied within Gen
	Epoch   uint64 // follower's fencing epoch
}

// Welcome is the primary's handshake answer. HeartbeatMS tells the follower
// how often to expect traffic on an idle link, so it can size its read-stall
// deadline. Epoch is the primary's fencing epoch; the follower adopts a
// higher one and refuses a lower one.
type Welcome struct {
	Version     uint64
	Snapshot    bool   // true: a snapshot bootstrap follows before records
	Gen         uint64 // generation the stream will continue in
	Records     uint64 // sequence the first record will carry
	HeartbeatMS uint64 // primary's heartbeat interval in ms
	Epoch       uint64 // primary's fencing epoch
}

// Ack is the follower's durable-applied position: Records
// frames of generation Gen — Bytes bytes of its local WAL — are on the
// follower's disk (or applied in memory, for a diskless follower).
type Ack struct {
	Gen     uint64
	Records uint64
	Bytes   uint64
}

// SnapBegin announces a snapshot transfer.
type SnapBegin struct {
	Gen  uint64 // generation the snapshot establishes
	Size uint64 // total snapshot bytes across the chunks
}

// RecordMsg carries one WAL frame payload plus the primary's durable
// frontier at send time (for follower lag accounting). Epoch re-stamps the
// primary's fencing epoch on every frame, so a follower detects a stale
// primary even mid-stream.
type RecordMsg struct {
	Gen             uint64
	Seq             uint64 // record index within Gen (0-based)
	FrontierGen     uint64
	FrontierRecords uint64
	FrontierBytes   uint64
	Epoch           uint64 // primary's fencing epoch
	Payload         []byte
}

// Heartbeat refreshes the follower's view of the primary frontier on an
// idle link, and re-stamps the primary's fencing epoch.
type Heartbeat struct {
	FrontierGen     uint64
	FrontierRecords uint64
	FrontierBytes   uint64
	Epoch           uint64 // primary's fencing epoch
}

// writeMsg frames one message onto w: header, then typ+body.
func writeMsg(w io.Writer, typ MsgType, body []byte) error {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, byte(typ))
	payload = append(payload, body...)
	if len(payload) > maxMsgPayload {
		return &ProtocolError{Msg: typ, Detail: fmt.Sprintf("payload %d exceeds limit %d", len(payload), maxMsgPayload)}
	}
	frame := frameMsg(payload)
	_, err := w.Write(frame)
	return err
}

// frameMsg prefixes payload with the WAL's checksummed frame header.
func frameMsg(payload []byte) []byte {
	frame := make([]byte, wal.FrameOverhead+len(payload))
	wal.PutFrameHeader(frame, payload)
	copy(frame[wal.FrameOverhead:], payload)
	return frame
}

// readMsg reads one message from r, verifying both checksums. The
// returned payload excludes the type byte and is owned by the caller. A
// clean EOF before any header byte returns io.EOF; everything else
// short is an attributed error. Payload memory is grown in steps as bytes
// actually arrive, so a corrupt header cannot demand a 64 MiB
// allocation from a 20-byte stream.
func readMsg(r io.Reader) (MsgType, []byte, error) {
	var hdr [wal.FrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, &ProtocolError{Detail: fmt.Sprintf("truncated header: %v", err)}
	}
	plen, err := wal.ParseFrameHeader(hdr[:], maxMsgPayload)
	if err != nil {
		return 0, nil, &ProtocolError{Detail: err.Error()}
	}
	if plen == 0 {
		return 0, nil, &ProtocolError{Detail: "empty payload (no message type)"}
	}
	payload := make([]byte, 0, min(int(plen), snapChunkSize+64))
	for len(payload) < int(plen) {
		step := int(plen) - len(payload)
		if step > snapChunkSize {
			step = snapChunkSize
		}
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[len(payload)-step:]); err != nil {
			return 0, nil, &ProtocolError{Detail: fmt.Sprintf("truncated payload (%d of %d bytes): %v", len(payload)-step, plen, err)}
		}
	}
	if err := wal.CheckFrame(hdr[:], payload); err != nil {
		return 0, nil, &ProtocolError{Detail: err.Error()}
	}
	return MsgType(payload[0]), payload[1:], nil
}

// enc helpers: all message bodies are uvarint/bytes sequences.

func appendUvarints(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// bodyReader decodes a message body, remembering the type for error
// attribution.
type bodyReader struct {
	typ MsgType
	b   []byte
	err error
}

func (d *bodyReader) uvarint(name string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = &ProtocolError{Msg: d.typ, Detail: fmt.Sprintf("bad %s varint", name)}
		return 0
	}
	d.b = d.b[n:]
	return v
}

// rest takes every remaining byte (a record payload or snapshot chunk).
func (d *bodyReader) rest() []byte {
	b := d.b
	d.b = nil
	return b
}

func (d *bodyReader) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return &ProtocolError{Msg: d.typ, Detail: fmt.Sprintf("%d trailing bytes", len(d.b))}
	}
	return nil
}

// Message encoders/decoders. Decoders validate every field and reject
// trailing garbage: a decoded message is exactly what the encoder
// produced.

func encodeHello(h Hello) []byte {
	body := append([]byte(nil), Magic...)
	return appendUvarints(body, h.Version, h.Gen, h.Records, h.Epoch)
}

// decodeHello refuses any magic or version but this build's: the fields
// after the version are only defined for it.
func decodeHello(body []byte) (Hello, error) {
	if len(body) < len(Magic) || string(body[:len(Magic)]) != Magic {
		return Hello{}, &ProtocolError{Msg: MsgHello, Detail: "bad magic"}
	}
	d := &bodyReader{typ: MsgHello, b: body[len(Magic):]}
	h := Hello{Version: d.uvarint("version")}
	if d.err == nil {
		d.err = checkVersion(MsgHello, h.Version)
	}
	h.Gen = d.uvarint("gen")
	h.Records = d.uvarint("records")
	h.Epoch = d.uvarint("epoch")
	return h, d.done()
}

func encodeWelcome(w Welcome) []byte {
	snap := uint64(0)
	if w.Snapshot {
		snap = 1
	}
	return appendUvarints(nil, w.Version, snap, w.Gen, w.Records, w.HeartbeatMS, w.Epoch)
}

func decodeWelcome(body []byte) (Welcome, error) {
	d := &bodyReader{typ: MsgWelcome, b: body}
	w := Welcome{Version: d.uvarint("version")}
	if d.err == nil {
		d.err = checkVersion(MsgWelcome, w.Version)
	}
	switch snap := d.uvarint("snapshot"); snap {
	case 0:
	case 1:
		w.Snapshot = true
	default:
		if d.err == nil {
			d.err = &ProtocolError{Msg: MsgWelcome, Detail: fmt.Sprintf("bad snapshot flag %d", snap)}
		}
	}
	w.Gen = d.uvarint("gen")
	w.Records = d.uvarint("records")
	w.HeartbeatMS = d.uvarint("heartbeat ms")
	w.Epoch = d.uvarint("epoch")
	return w, d.done()
}

func encodeAck(a Ack) []byte {
	return appendUvarints(nil, a.Gen, a.Records, a.Bytes)
}

func decodeAck(body []byte) (Ack, error) {
	d := &bodyReader{typ: MsgAck, b: body}
	a := Ack{
		Gen:     d.uvarint("gen"),
		Records: d.uvarint("records"),
		Bytes:   d.uvarint("bytes"),
	}
	return a, d.done()
}

func encodeSnapBegin(s SnapBegin) []byte {
	return appendUvarints(nil, s.Gen, s.Size)
}

func decodeSnapBegin(body []byte) (SnapBegin, error) {
	d := &bodyReader{typ: MsgSnapBegin, b: body}
	s := SnapBegin{Gen: d.uvarint("gen"), Size: d.uvarint("size")}
	return s, d.done()
}

// The Epoch uvarint sits between the frontier fields and the raw payload
// (the payload is "the rest", so it is the one field with no length).
func encodeRecord(r RecordMsg) []byte {
	body := appendUvarints(nil, r.Gen, r.Seq, r.FrontierGen, r.FrontierRecords, r.FrontierBytes, r.Epoch)
	return append(body, r.Payload...)
}

func decodeRecord(body []byte) (RecordMsg, error) {
	d := &bodyReader{typ: MsgRecord, b: body}
	r := RecordMsg{
		Gen:             d.uvarint("gen"),
		Seq:             d.uvarint("seq"),
		FrontierGen:     d.uvarint("frontier gen"),
		FrontierRecords: d.uvarint("frontier records"),
		FrontierBytes:   d.uvarint("frontier bytes"),
		Epoch:           d.uvarint("epoch"),
	}
	if d.err != nil {
		return r, d.err
	}
	r.Payload = d.rest()
	return r, nil
}

func encodeHeartbeat(h Heartbeat) []byte {
	return appendUvarints(nil, h.FrontierGen, h.FrontierRecords, h.FrontierBytes, h.Epoch)
}

func decodeHeartbeat(body []byte) (Heartbeat, error) {
	d := &bodyReader{typ: MsgHeartbeat, b: body}
	h := Heartbeat{
		FrontierGen:     d.uvarint("frontier gen"),
		FrontierRecords: d.uvarint("frontier records"),
		FrontierBytes:   d.uvarint("frontier bytes"),
		Epoch:           d.uvarint("epoch"),
	}
	return h, d.done()
}
