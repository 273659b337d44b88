package wal

import (
	"testing"

	"precis/internal/storage"
)

// fuzzSeedSnapshot builds a representative snapshot byte stream for the
// fuzz corpora (relations, tuples of every value kind, FKs, extras).
func fuzzSeedSnapshot() []byte {
	db := storage.NewDatabase("fuzzdb")
	db.MustCreateRelation(storage.MustSchema("R", "id",
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "s", Type: storage.TypeString},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "b", Type: storage.TypeBool}))
	db.MustCreateRelation(storage.MustSchema("S", "",
		storage.Column{Name: "rid", Type: storage.TypeInt},
		storage.Column{Name: "note", Type: storage.TypeString}))
	_, _ = db.Insert("R", storage.Int(1), storage.String("héllo wörld"), storage.Float(3.14), storage.Bool(true))
	_, _ = db.Insert("R", storage.Int(2), storage.Null, storage.Null, storage.Bool(false))
	_, _ = db.Insert("S", storage.Int(1), storage.String(""))
	_ = db.AddForeignKey(storage.ForeignKey{FromRelation: "S", FromColumn: "rid", ToRelation: "R", ToColumn: "id"})
	return mustEncode(&SnapshotData{
		DB:       db,
		Synonyms: [][2]string{{"alias", "canonical term"}},
		Macros:   []string{`DEFINE M as "x."`},
	})
}

// fuzzSeedWAL builds a representative WAL byte stream: one frame per op
// kind, then a torn final frame.
func fuzzSeedWAL() []byte {
	var raw []byte
	recs := []Record{
		{Op: OpInsert, Rel: "R", ID: 1, Values: []storage.Value{storage.Int(1), storage.String("a"), storage.Float(0.5), storage.Bool(true), storage.Null}},
		{Op: OpUpdate, Rel: "R", ID: 1, Values: []storage.Value{storage.Int(2)}},
		{Op: OpDelete, Rel: "R", ID: 1},
		{Op: OpSynonym, Alias: "w allen", Canonical: "Woody Allen"},
		{Op: OpMacro, Def: `DEFINE M as "x."`},
	}
	for _, r := range recs {
		raw = mustFrame(raw, r.encode(nil))
	}
	return append(raw, 0x42, 0x42, 0x42) // torn tail
}

// FuzzSnapshotDecode feeds adversarial bytes to the snapshot decoder: it
// must never panic and never allocate beyond what the input justifies —
// every length and count field is validated against the remaining bytes
// before any allocation. Valid inputs must re-encode to an equivalent
// snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                                                       // truncation
	f.Add([]byte(snapMagic))                                                        // magic only
	f.Add([]byte("PRCSNAP2junk"))                                                   // wrong magic version
	f.Add(mustFrame([]byte(snapMagic), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01})) // absurd uvarint header
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut) // flipped bit
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		data, err := DecodeSnapshot("", raw)
		if err != nil {
			return
		}
		// A successfully decoded snapshot must survive a round trip. The
		// input cap keeps decoded states far under the frame limit, so the
		// re-encode can never hit it.
		re, err := EncodeSnapshot(data)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		if _, err := DecodeSnapshot("", re); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}

// FuzzWALReplay feeds adversarial bytes to the WAL replayer: it must never
// panic, must classify every input as clean / torn / corrupt, and replayed
// records must round-trip through the record codec.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedWAL()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03}) // partial header
	mut := append([]byte(nil), seed...)
	mut[2] ^= 0x01
	f.Add(mut) // corrupt length field
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		info, err := ReplayBytes(raw, func(r Record) error {
			// Anything the replayer hands out must re-encode and re-decode
			// identically: it came off a checksummed frame.
			if _, err := decodeRecord(r.encode(nil)); err != nil {
				t.Fatalf("replayed record does not round-trip: %v", err)
			}
			return nil
		})
		if err != nil {
			return
		}
		if info.TornBytes < 0 || info.TornBytes > int64(len(raw)) {
			t.Fatalf("torn bytes %d out of range for %d-byte input", info.TornBytes, len(raw))
		}
	})
}
