package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"precis/internal/storage"
)

// FrameOverhead is the fixed per-frame header: payload length (4 bytes,
// little endian), CRC32C of those 4 length bytes, CRC32C of the payload. The
// replication wire uses the same header and accounts lag in file offsets.
const FrameOverhead = 12

// castagnoli is the CRC32C table (the polynomial storage engines use for
// on-disk checksums; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errFrameTooLarge rejects a write-path payload the read path would refuse
// to parse. Enforcing the cap here — before any bytes reach disk — keeps an
// oversized section from producing a file that encodes "successfully" but
// can never be decoded again (and keeps uint32(len) from silently wrapping
// past 4 GiB into an undetectably corrupt length field).
var errFrameTooLarge = errors.New("wal: frame payload exceeds limit")

// appendFrame frames payload into dst: header then payload. Payloads over
// maxFramePayload are refused with errFrameTooLarge; they could be written
// but never read back.
func appendFrame(dst, payload []byte) ([]byte, error) {
	var hdr [FrameOverhead]byte
	if err := putFrameHeader(hdr[:], payload); err != nil {
		return nil, err
	}
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// putFrameHeader writes payload's frame header into hdr, refusing a payload
// over maxFramePayload.
func putFrameHeader(hdr, payload []byte) error {
	if err := checkFramePayload(len(payload)); err != nil {
		return err
	}
	PutFrameHeader(hdr, payload)
	return nil
}

// PutFrameHeader writes payload's header into hdr: the one frame writer of
// the log files and the replication wire, each bounding payload first.
func PutFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(hdr[0:4], castagnoli))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
}

// ParseFrameHeader returns the payload length hdr announces, refusing one that
// fails its own checksum or exceeds limit. Its errors name only the failed
// check: the caller attributes them (*CorruptionError on disk, a protocol
// error on the wire).
func ParseFrameHeader(hdr []byte, limit uint32) (uint32, error) {
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if got, stored := crc32.Checksum(hdr[0:4], castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != stored {
		return 0, fmt.Errorf("length checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	if plen > limit {
		return 0, fmt.Errorf("frame payload %d exceeds limit %d", plen, limit)
	}
	return plen, nil
}

// CheckFrame verifies payload, the bytes after hdr, against hdr's checksum.
func CheckFrame(hdr, payload []byte) error {
	if got, stored := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[8:12]); got != stored {
		return fmt.Errorf("payload checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	return nil
}

func checkFramePayload(n int) error {
	if n > maxFramePayload {
		return fmt.Errorf("%w (%d > %d bytes)", errFrameTooLarge, n, maxFramePayload)
	}
	return nil
}

// CorruptionError reports a checksum failure that cannot be a torn write:
// the affected bytes are followed by more data (or fail their own header
// checksum), so a crash mid-append cannot explain them. Recovery hard-fails
// on it — silently dropping committed records would be data loss.
type CorruptionError struct {
	// File is the offending file path ("" when decoding from memory).
	File string
	// Offset is the byte offset of the corrupt frame.
	Offset int64
	// Record is the zero-based index of the corrupt frame in the file.
	Record int
	// Detail says which check failed.
	Detail string
}

func (e *CorruptionError) Error() string {
	file := e.File
	if file == "" {
		file = "<memory>"
	}
	return fmt.Sprintf("wal: corruption in %s: record %d at offset %d: %s", file, e.Record, e.Offset, e.Detail)
}

// recordError attributes to its file and record the error decoding or
// applying that record met: corruption, unless the record is sound and holds
// an id this engine cannot, a FLOAT value no float64 is or a key its
// conversion duplicated (storage.ErrOutOfIDs, ErrInexact, ErrDuplicateKey,
// kept for errors.Is).
func recordError(file string, off int64, record int, err error) error {
	if errors.Is(err, storage.ErrOutOfIDs) || errors.Is(err, storage.ErrInexact) || errors.Is(err, storage.ErrDuplicateKey) {
		return fmt.Errorf("wal: %s: record %d at offset %d: %w", fileLabel(file), record, off, err)
	}
	return &CorruptionError{File: file, Offset: off, Record: record, Detail: err.Error()}
}

// errIncomplete marks a snapshot that ends cleanly but before its trailer —
// an interrupted write, not a flipped bit. Recovery may fall back to an
// older generation on it.
var errIncomplete = errors.New("wal: incomplete file")

// IsIncomplete reports whether err marks a truncated-but-uncorrupted file.
func IsIncomplete(err error) bool { return errors.Is(err, errIncomplete) }

// tornTail describes a final partial frame left by a crash mid-append.
type tornTail struct {
	// Offset is where the torn frame starts; bytes from here on are garbage.
	Offset int64
	// Detail says what was missing.
	Detail string
}

// FrameReader incrementally decodes frames from a file — the streaming
// counterpart of scanFrames, used by the replication primary to tail a
// live WAL. It reads at explicit offsets (ReadAt), so a frame that is not
// complete yet consumes nothing: Next can simply be retried once the file
// has grown.
type FrameReader struct {
	r    io.ReaderAt
	file string // for error attribution ("" allowed)
	off  int64
	idx  int
	buf  []byte
}

// NewFrameReader tails frames from r, attributing corruption to file.
func NewFrameReader(r io.ReaderAt, file string) *FrameReader {
	return &FrameReader{r: r, file: file}
}

// Offset returns the byte offset the next frame starts at.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next returns the next complete frame's payload, valid until the
// following call. io.EOF means no complete frame is available at the
// current offset — retryable while the file is still being appended to
// (nothing was consumed). A checksum failure is a *CorruptionError.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [FrameOverhead]byte
	if _, err := fr.r.ReadAt(hdr[:], fr.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	plen, err := ParseFrameHeader(hdr[:], maxFramePayload)
	if err != nil {
		return nil, &CorruptionError{File: fr.file, Offset: fr.off, Record: fr.idx, Detail: err.Error()}
	}
	if int(plen) > cap(fr.buf) {
		fr.buf = make([]byte, plen)
	}
	buf := fr.buf[:plen]
	if _, err := fr.r.ReadAt(buf, fr.off+FrameOverhead); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	if err := CheckFrame(hdr[:], buf); err != nil {
		return nil, &CorruptionError{File: fr.file, Offset: fr.off, Record: fr.idx, Detail: err.Error()}
	}
	fr.off += FrameOverhead + int64(plen)
	fr.idx++
	return buf, nil
}

// scanFrames walks the frames in data, calling fn with each payload (valid
// only during the call). It stops at a torn tail — a final frame whose
// header is cut short or whose authenticated length runs past the end of
// data — and returns its description. A frame that fails either checksum
// while followed by complete data is corruption, returned as a
// *CorruptionError with file/offset/record filled in. fn errors abort the
// scan and are returned as recordError makes them: a record that cannot be
// applied is as unrecoverable as one that cannot be read.
func scanFrames(file string, data []byte, fn func(i int, off int64, payload []byte) error) (*tornTail, error) {
	off := int64(0)
	size := int64(len(data))
	for i := 0; ; i++ {
		if off == size {
			return nil, nil // clean end
		}
		if size-off < FrameOverhead {
			return &tornTail{Offset: off, Detail: fmt.Sprintf("partial header (%d of %d bytes)", size-off, FrameOverhead)}, nil
		}
		hdr := data[off : off+FrameOverhead]
		plen, err := ParseFrameHeader(hdr, maxFramePayload)
		if err != nil {
			// A length field that fails its own checksum: a torn write can
			// only truncate the header (caught above), never scramble it, so
			// this is a flipped bit — even in the final frame.
			return nil, &CorruptionError{File: file, Offset: off, Record: i, Detail: err.Error()}
		}
		end := off + FrameOverhead + int64(plen)
		if end > size {
			// Authenticated length runs past end-of-file: the payload write
			// was cut short. This is the torn-tail case.
			return &tornTail{Offset: off, Detail: fmt.Sprintf("partial payload (%d of %d bytes)", size-off-FrameOverhead, plen)}, nil
		}
		payload := data[off+FrameOverhead : end]
		if err := CheckFrame(hdr, payload); err != nil {
			// Full-length payload with a bad checksum cannot be a torn
			// write: flipped bit, hard failure.
			return nil, &CorruptionError{File: file, Offset: off, Record: i, Detail: err.Error()}
		}
		if fn != nil {
			if err := fn(i, off, payload); err != nil {
				return nil, recordError(file, off, i, err)
			}
		}
		off = end
	}
}
