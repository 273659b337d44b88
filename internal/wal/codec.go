// Package wal is the engine's durability subsystem: a versioned, CRC32C-
// framed binary snapshot codec for the full storage.Database (plus engine
// extras: synonyms and narrative macro definitions), an append-only
// write-ahead log of every mutation with group-commit batching and a
// configurable fsync policy, and crash recovery that loads the newest valid
// snapshot, replays the log, silently truncates a torn tail, and hard-fails
// with a precise diagnostic (file, offset, record index) on mid-log
// corruption.
//
// On-disk layout of a data directory:
//
//	snap-<gen>.snap   full snapshot at generation <gen> (16 hex digits)
//	wal-<gen>.log     mutations appended after snapshot <gen>
//
// Both file kinds are built from the same frame: a 12-byte header —
// payload length (uint32 LE), CRC32C of the length field, CRC32C of the
// payload — followed by the payload. Checksumming the length field
// separately makes torn-tail classification exact under a truncate-at-any-
// byte crash model: a header that fails its own checksum can only be a
// flipped bit (hard failure), while a frame that runs past end-of-file with
// a valid header is a torn write (truncated with a warning).
//
// Snapshots are written to a temp file, fsynced, atomically renamed into
// place, and the directory fsynced — a crash mid-snapshot never damages the
// previous generation. Checkpointing writes a new snapshot, rotates the
// WAL, and garbage-collects older generations.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"precis/internal/storage"
)

// maxFramePayload caps a single frame. Frames near this size only arise
// from absurd inputs; the cap keeps adversarial length fields from driving
// allocations (decoders additionally never allocate more than the bytes
// actually present).
const maxFramePayload = 1 << 30

// enc is an append-only binary encoder. The zero value is ready to use. One
// with sizing set writes nothing: it counts in n the bytes it would write, so
// that the code that writes a buffer also sizes it first (sized).
type enc struct {
	b      []byte
	sizing bool
	n      int
}

// sized runs write twice: counting, then into a buffer made at the size it
// counted — one allocation, whatever the size.
func sized(write func(e *enc) error) ([]byte, error) {
	sizer := enc{sizing: true}
	if err := write(&sizer); err != nil {
		return nil, err
	}
	e := enc{b: make([]byte, 0, sizer.n)}
	if err := write(&e); err != nil {
		return nil, err
	}
	return e.b, nil
}

func (e *enc) bytes() []byte { return e.b }

// put appends s's bytes as they are.
func (e *enc) put(s string) {
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

func (e *enc) u8(v uint8) {
	if e.sizing {
		e.n++
		return
	}
	e.b = append(e.b, v)
}

func (e *enc) uvarint(v uint64) {
	if e.sizing {
		e.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

// varint zigzag-encodes v, as binary.AppendVarint does.
func (e *enc) varint(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *enc) f64(v float64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.put(s)
}

// value encodes one storage.Value as kind byte + payload.
func (e *enc) value(v storage.Value) {
	e.u8(uint8(v.Kind()))
	switch v.Kind() {
	case storage.KindNull:
	case storage.KindInt:
		e.varint(v.AsInt())
	case storage.KindFloat:
		e.f64(v.AsFloat())
	case storage.KindString:
		e.str(v.AsString())
	case storage.KindBool:
		if v.AsBool() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
}

// row encodes a stored row as a length-prefixed value list, the bytes a
// Record's Values would be.
func (e *enc) row(r storage.Row) {
	e.uvarint(uint64(r.Len()))
	for i := 0; i < r.Len(); i++ {
		e.value(r.Value(i))
	}
}

// open reserves a frame header at the end of the buffer and returns where
// the section after it starts, for close to frame once it is written: a
// section framed where it is written, where appendFrame copies one.
func (e *enc) open() int {
	if e.sizing {
		e.n += FrameOverhead
		return e.n
	}
	e.b = append(e.b, make([]byte, FrameOverhead)...)
	return len(e.b)
}

// close frames the section written since open returned at, refusing one over
// the frame payload limit.
func (e *enc) close(at int) error {
	if e.sizing {
		return checkFramePayload(e.n - at)
	}
	return putFrameHeader(e.b[at-FrameOverhead:at], e.b[at:])
}

// schema encodes a relation section's schema: name, key, and each column's
// name and type.
func (e *enc) schema(sc *storage.Schema) {
	e.str(sc.Name)
	e.str(sc.Key)
	e.uvarint(uint64(len(sc.Columns)))
	for _, c := range sc.Columns {
		e.str(c.Name)
		e.u8(uint8(c.Type))
	}
}

// fks encodes a foreign-key section.
func (e *enc) fks(fks []storage.ForeignKey) {
	e.uvarint(uint64(len(fks)))
	for _, fk := range fks {
		e.str(fk.FromRelation)
		e.str(fk.FromColumn)
		e.str(fk.ToRelation)
		e.str(fk.ToColumn)
	}
}

// extras encodes an extras section: the synonyms sorted by alias, for
// deterministic bytes, then the macro definitions in definition order.
func (e *enc) extras(syn [][2]string, macros []string) {
	if !e.sizing {
		syn = append([][2]string(nil), syn...)
		sort.Slice(syn, func(i, j int) bool { return syn[i][0] < syn[j][0] })
	}
	e.uvarint(uint64(len(syn)))
	for _, p := range syn {
		e.str(p[0])
		e.str(p[1])
	}
	e.uvarint(uint64(len(macros)))
	for _, m := range macros {
		e.str(m)
	}
}

// dec is a bounds-checked binary decoder over one frame payload. Every
// accessor validates against the remaining bytes before reading or
// allocating, so adversarial inputs (fuzzed length fields, truncated
// payloads) produce errors, never panics or oversized allocations.
type dec struct {
	b   []byte
	off int
	// borrow makes a decoded value's text alias the payload: for a caller that
	// copies the values into a record while the payload is still there.
	borrow bool
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) done() bool { return d.off >= len(d.b) }

func (d *dec) u8() (uint8, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("byte at %d past end (%d bytes)", d.off, len(d.b))
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) f64() (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("float at %d past end", d.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

func (d *dec) str() (string, error) {
	b, err := d.text()
	return string(b), err
}

// text reads a length-prefixed string's bytes, which alias the payload.
func (d *dec) text() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("string of %d bytes at %d exceeds remaining %d", n, d.off, d.remaining())
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// count reads a uvarint element count and validates it against the smallest
// possible per-element encoding, so a fuzzed count can never drive an
// allocation larger than the input itself.
func (d *dec) count(minBytesPerElem int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytesPerElem < 1 {
		minBytesPerElem = 1
	}
	if n > uint64(d.remaining()/minBytesPerElem) {
		return 0, fmt.Errorf("count %d at %d exceeds remaining input", n, d.off)
	}
	return int(n), nil
}

func (d *dec) value() (storage.Value, error) {
	k, err := d.u8()
	if err != nil {
		return storage.Null, err
	}
	switch storage.Kind(k) {
	case storage.KindNull:
		return storage.Null, nil
	case storage.KindInt:
		v, err := d.varint()
		if err != nil {
			return storage.Null, err
		}
		return storage.Int(v), nil
	case storage.KindFloat:
		v, err := d.f64()
		if err != nil {
			return storage.Null, err
		}
		return storage.Float(v), nil
	case storage.KindString:
		b, err := d.text()
		switch {
		case err != nil:
			return storage.Null, err
		case d.borrow && len(b) > 0:
			return storage.String(unsafe.String(&b[0], len(b))), nil
		}
		return storage.String(string(b)), nil
	case storage.KindBool:
		b, err := d.u8()
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(b != 0), nil
	default:
		return storage.Null, fmt.Errorf("unknown value kind %d", k)
	}
}

// values appends a length-prefixed value list to out.
func (d *dec) values(out []storage.Value) ([]storage.Value, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		v, err := d.value()
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}
