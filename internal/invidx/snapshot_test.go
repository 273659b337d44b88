package invidx

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"precis/internal/storage"
)

func TestIndexSnapshotRoundTrip(t *testing.T) {
	db := moviesDB(t)
	ix := New(db)
	raw := ix.EncodeSnapshot(5)
	if !bytes.Equal(raw, ix.EncodeSnapshot(5)) {
		t.Fatal("EncodeSnapshot is not deterministic")
	}
	got, gen, err := DecodeSnapshot(raw, db)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if gen != 5 {
		t.Fatalf("generation stamp %d, want 5", gen)
	}
	if got.NumTokens() != ix.NumTokens() {
		t.Fatalf("token count %d, want %d", got.NumTokens(), ix.NumTokens())
	}
	if !reflect.DeepEqual(got.postings, ix.postings) {
		t.Fatal("postings differ after round trip")
	}
	// The loaded index must answer lookups like the built one.
	for _, q := range []string{"woody", "woody allen", "match point", "scott"} {
		want := Relations(ix.Lookup(q))
		have := Relations(got.Lookup(q))
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("Lookup(%q): loaded %v, built %v", q, have, want)
		}
	}
}

// restamp recomputes the trailing CRC so a deliberate header tamper is
// structurally valid and rejected for the right reason.
func restamp(raw []byte) []byte {
	body := raw[:len(raw)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, indexCRCTable))
}

func TestIndexSnapshotTokenizerSkew(t *testing.T) {
	db := moviesDB(t)
	raw := New(db).EncodeSnapshot(1)
	// Format version and TokenizerVersion are both 1, so each encodes as a
	// single uvarint byte right after the magic.
	mut := append([]byte(nil), raw...)
	mut[len(indexMagic)+1] = TokenizerVersion + 1
	if _, _, err := DecodeSnapshot(restamp(mut), db); err == nil {
		t.Fatal("stale tokenizer version accepted")
	}
	mut = append([]byte(nil), raw...)
	mut[len(indexMagic)] = indexFormatVersion + 1
	if _, _, err := DecodeSnapshot(restamp(mut), db); err == nil {
		t.Fatal("unknown format version accepted")
	}
}

func TestIndexSnapshotTruncation(t *testing.T) {
	db := moviesDB(t)
	raw := New(db).EncodeSnapshot(1)
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := DecodeSnapshot(raw[:cut], db); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestIndexSnapshotBitFlips(t *testing.T) {
	db := moviesDB(t)
	raw := New(db).EncodeSnapshot(1)
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		if _, _, err := DecodeSnapshot(mut, db); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", off)
		}
	}
}

func TestIndexSnapshotTrailingBytes(t *testing.T) {
	db := moviesDB(t)
	raw := New(db).EncodeSnapshot(1)
	if _, _, err := DecodeSnapshot(restamp(append(raw, 0)), db); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// FuzzIndexSnapshotDecode hammers the bounds-checked decoder: it must never
// panic nor over-allocate, and anything it accepts must survive a
// re-encode/re-decode cycle.
func FuzzIndexSnapshotDecode(f *testing.F) {
	db := storage.NewDatabase("fuzz")
	db.MustCreateRelation(storage.MustSchema("R", "",
		storage.Column{Name: "s", Type: storage.TypeString}))
	if _, err := db.Insert("R", storage.String("Woody Allen film festival")); err != nil {
		f.Fatal(err)
	}
	seed := New(db).EncodeSnapshot(7)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])    // truncation
	f.Add([]byte(indexMagic))    // magic only
	f.Add([]byte("PRCIDX99etc")) // wrong magic
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut) // flipped bit
	// Absurd token count backed by a valid CRC: the count guard must trip.
	huge := []byte(indexMagic)
	huge = binary.AppendUvarint(huge, indexFormatVersion)
	huge = binary.AppendUvarint(huge, TokenizerVersion)
	huge = binary.AppendUvarint(huge, 1)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(binary.LittleEndian.AppendUint32(huge, crc32.Checksum(huge, indexCRCTable)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		ix, gen, err := DecodeSnapshot(raw, db)
		if err != nil {
			return
		}
		re := ix.EncodeSnapshot(gen)
		ix2, gen2, err := DecodeSnapshot(re, db)
		if err != nil {
			t.Fatalf("re-encoded index snapshot does not decode: %v", err)
		}
		if gen2 != gen || !reflect.DeepEqual(ix2.postings, ix.postings) {
			t.Fatal("re-encode round trip changed the index")
		}
	})
}
