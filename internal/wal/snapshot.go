package wal

import (
	"fmt"
	"os"

	"precis/internal/faultinject"
	"precis/internal/storage"
)

// Snapshot file format: the 8-byte magic, then one frame per section —
// header, one section per relation (schema + tuples), foreign keys, engine
// extras (synonyms + macro definitions), and a trailer that authenticates
// the total tuple count. A snapshot without its trailer is incomplete (an
// interrupted write), which recovery treats differently from corruption.
const (
	snapMagic   = "PRCSNAP1"
	snapVersion = 1
	// snapTrailer is the trailer section's first field, guarding against a
	// stray frame sequence that happens to end cleanly.
	snapTrailer = "precis-snapshot-end"
)

// SnapshotData is everything a snapshot captures: the full database plus
// the engine extras that live outside storage — synonym pairs (tokenized
// alias, canonical term) and narrative macro definitions, both in a
// deterministic order.
type SnapshotData struct {
	DB       *storage.Database
	Synonyms [][2]string
	Macros   []string

	synIdx   map[string]int
	macroSet map[string]bool
}

// setSynonym records or updates a synonym pair, keeping Synonyms sorted-
// insertion stable (an alias redefined in place keeps its slot).
func (s *SnapshotData) setSynonym(alias, canonical string) {
	if s.synIdx == nil {
		s.synIdx = make(map[string]int, len(s.Synonyms)+1)
		for i, p := range s.Synonyms {
			s.synIdx[p[0]] = i
		}
	}
	if i, ok := s.synIdx[alias]; ok {
		s.Synonyms[i][1] = canonical
		return
	}
	s.synIdx[alias] = len(s.Synonyms)
	s.Synonyms = append(s.Synonyms, [2]string{alias, canonical})
}

// addMacro records a macro definition, deduplicating exact repeats so
// checkpoint snapshots do not grow with every redefinition.
func (s *SnapshotData) addMacro(def string) {
	if s.macroSet == nil {
		s.macroSet = make(map[string]bool, len(s.Macros)+1)
		for _, m := range s.Macros {
			s.macroSet[m] = true
		}
	}
	if s.macroSet[def] {
		return
	}
	s.macroSet[def] = true
	s.Macros = append(s.Macros, def)
}

// EncodeSnapshot renders data as snapshot bytes. Relations are encoded in
// creation order and tuples in scan (insertion) order — storage guarantees
// both are stable — so identical states produce identical bytes, written
// into one buffer made at their size (sized). A section
// whose encoding exceeds the frame payload limit (a single relation over
// 1 GiB) is refused with an error naming it: the same limit the decoder
// hard-fails on must be enforced here, before any bytes can reach disk,
// or a checkpoint would "succeed", garbage-collect the older generations,
// and leave behind a snapshot that can never be opened again.
func EncodeSnapshot(data *SnapshotData) ([]byte, error) {
	db := data.DB
	names := db.RelationNames()
	return sized(func(e *enc) error {
		e.put(snapMagic)
		at := e.open()
		e.header(db.Name(), db.NextTupleID(), len(names))
		if err := e.close(at); err != nil {
			return fmt.Errorf("wal: snapshot header: %w", err)
		}
		// One section per relation: schema then tuples.
		total := 0
		for _, name := range names {
			rel := db.Relation(name)
			at := e.open()
			e.schema(rel.Schema())
			e.uvarint(uint64(rel.Len()))
			rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
				e.uvarint(uint64(id))
				e.row(row)
				return true
			})
			if err := e.close(at); err != nil {
				return fmt.Errorf("wal: snapshot relation %s: %w", name, err)
			}
			total += rel.Len()
		}
		if err := e.tail(db.ForeignKeys(), data.Synonyms, data.Macros, snapTrailer, total); err != nil {
			return fmt.Errorf("wal: snapshot %w", err)
		}
		return nil
	})
}

// header encodes a snapshot's header section.
func (e *enc) header(name string, next storage.TupleID, rels int) {
	e.uvarint(snapVersion)
	e.str(name)
	e.uvarint(uint64(next))
	e.uvarint(uint64(rels))
}

// tail writes the three sections a snapshot and a delta both end with: the
// foreign keys, the extras (synonyms and macro definitions), and the trailer,
// which authenticates that every section arrived — tag, then count (tuples,
// or changes).
func (e *enc) tail(fks []storage.ForeignKey, syn [][2]string, macros []string, tag string, count int) error {
	at := e.open()
	e.fks(fks)
	if err := e.close(at); err != nil {
		return fmt.Errorf("foreign keys: %w", err)
	}
	at = e.open()
	e.extras(syn, macros)
	if err := e.close(at); err != nil {
		return fmt.Errorf("extras: %w", err)
	}
	at = e.open()
	e.str(tag)
	e.uvarint(uint64(count))
	if err := e.close(at); err != nil {
		return fmt.Errorf("trailer: %w", err)
	}
	return nil
}

// DecodeSnapshot parses snapshot bytes back into a SnapshotData. file names
// the source in diagnostics ("" for in-memory input). Corruption (checksum
// mismatch anywhere) returns a *CorruptionError; a byte stream that simply
// stops before the trailer returns an error satisfying IsIncomplete. The
// decoder never panics and never allocates more than the input justifies,
// whatever the bytes claim.
func DecodeSnapshot(file string, raw []byte) (*SnapshotData, error) {
	return readSnapshot(file, raw, func(db *storage.Database, rel *storage.Relation, n int, d *dec) error {
		// One buffer for every tuple's values, their text borrowed from the
		// payload: the insert copies both into the tuple's record.
		d.borrow = true
		var vals []storage.Value
		for i := 0; i < n; i++ {
			id, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("tuple %d: %w", i, err)
			}
			vals, err = d.values(vals[:0])
			if err != nil {
				return fmt.Errorf("tuple %d: %w", i, err)
			}
			if err := db.InsertWithID(rel.Name(), storage.TupleID(id), vals...); err != nil {
				return fmt.Errorf("tuple %d: %w", i, err)
			}
		}
		return nil
	})
}

// readSnapshot checks raw's framing and parses every section of it but the
// tuples: the header, each relation's schema — created, empty, in the
// database of the SnapshotData it returns — the foreign keys, the extras and
// the trailer. tuples is handed each relation section's tuples in turn: the
// relation, the count its section declares, and a decoder at the first of
// them; it must read all of them or fail. DecodeSnapshot inserts them and the
// compaction merges them, so the two refuse a snapshot at the same section,
// classified alike: an error from tuples, like any other in a section, is a
// *CorruptionError attributed to that section's frame (or a storage.ErrOutOfIDs
// for an id past the largest), and a stream that stops before its trailer
// satisfies IsIncomplete.
func readSnapshot(file string, raw []byte, tuples func(db *storage.Database, rel *storage.Relation, n int, d *dec) error) (*SnapshotData, error) {
	if len(raw) < len(snapMagic) || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: not a snapshot (bad magic): %w", fileLabel(file), errIncomplete)
	}
	var (
		data      = &SnapshotData{}
		nRels     int
		relsSeen  int
		fksDone   bool
		extrasOK  bool
		trailerOK bool
		declared  uint64 // tuples the relation sections declare
		total     uint64 // tuples the trailer declares
	)
	torn, err := scanFrames(file, raw[len(snapMagic):], func(i int, off int64, payload []byte) error {
		d := &dec{b: payload}
		switch {
		case i == 0: // header
			ver, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if ver != snapVersion {
				return fmt.Errorf("unsupported snapshot version %d", ver)
			}
			name, err := d.str()
			if err != nil {
				return fmt.Errorf("header: %w", err)
			}
			next, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("header: %w", err)
			}
			n, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if n > uint64(len(raw)) { // each relation section costs ≥ 1 byte
				return fmt.Errorf("header: relation count %d exceeds input", n)
			}
			nRels = int(n)
			data.DB = storage.NewDatabase(name)
			data.DB.SetNextTupleID(storage.TupleID(next))
			return nil
		case relsSeen < nRels: // relation section
			rel, n, err := decodeSchema(d, data.DB)
			if err == nil {
				err = tuples(data.DB, rel, n, d)
			}
			if err != nil {
				return fmt.Errorf("relation section %d: %w", relsSeen, err)
			}
			declared += uint64(n)
			relsSeen++
			return nil
		case !fksDone: // foreign keys
			n, err := d.count(4)
			if err != nil {
				return fmt.Errorf("foreign keys: %w", err)
			}
			for j := 0; j < n; j++ {
				var fk storage.ForeignKey
				if fk.FromRelation, err = d.str(); err == nil {
					if fk.FromColumn, err = d.str(); err == nil {
						if fk.ToRelation, err = d.str(); err == nil {
							fk.ToColumn, err = d.str()
						}
					}
				}
				if err != nil {
					return fmt.Errorf("foreign key %d: %w", j, err)
				}
				if err := data.DB.AddForeignKey(fk); err != nil {
					return err
				}
			}
			fksDone = true
			return nil
		case !extrasOK: // synonyms + macros
			n, err := d.count(2)
			if err != nil {
				return fmt.Errorf("synonyms: %w", err)
			}
			for j := 0; j < n; j++ {
				alias, err := d.str()
				if err != nil {
					return fmt.Errorf("synonym %d: %w", j, err)
				}
				canonical, err := d.str()
				if err != nil {
					return fmt.Errorf("synonym %d: %w", j, err)
				}
				data.setSynonym(alias, canonical)
			}
			n, err = d.count(1)
			if err != nil {
				return fmt.Errorf("macros: %w", err)
			}
			for j := 0; j < n; j++ {
				def, err := d.str()
				if err != nil {
					return fmt.Errorf("macro %d: %w", j, err)
				}
				data.addMacro(def)
			}
			extrasOK = true
			return nil
		case !trailerOK: // trailer
			tag, err := d.str()
			if err != nil || tag != snapTrailer {
				return fmt.Errorf("bad trailer")
			}
			if total, err = d.uvarint(); err != nil {
				return fmt.Errorf("trailer: %w", err)
			}
			trailerOK = true
			return nil
		default:
			return fmt.Errorf("unexpected section after trailer")
		}
	})
	if err != nil {
		return nil, err
	}
	if torn != nil || !trailerOK {
		detail := "missing trailer"
		if torn != nil {
			detail = torn.Detail
		}
		return nil, fmt.Errorf("wal: %s: snapshot incomplete (%s): %w", fileLabel(file), detail, errIncomplete)
	}
	if declared != total {
		return nil, &CorruptionError{File: file, Offset: 0, Record: 0,
			Detail: fmt.Sprintf("trailer declares %d tuples, decoded %d", total, declared)}
	}
	return data, nil
}

// decodeSchema parses a relation section's schema and creates the relation
// in db, returning it with the tuple count the section declares.
func decodeSchema(d *dec, db *storage.Database) (*storage.Relation, int, error) {
	name, err := d.str()
	if err != nil {
		return nil, 0, err
	}
	key, err := d.str()
	if err != nil {
		return nil, 0, err
	}
	ncols, err := d.count(2)
	if err != nil {
		return nil, 0, err
	}
	cols := make([]storage.Column, 0, ncols)
	for i := 0; i < ncols; i++ {
		cname, err := d.str()
		if err != nil {
			return nil, 0, fmt.Errorf("column %d: %w", i, err)
		}
		ct, err := d.u8()
		if err != nil {
			return nil, 0, fmt.Errorf("column %d: %w", i, err)
		}
		cols = append(cols, storage.Column{Name: cname, Type: storage.ColType(ct)})
	}
	schema, err := storage.NewSchema(name, key, cols...)
	if err != nil {
		return nil, 0, err
	}
	rel, err := db.CreateRelation(schema)
	if err != nil {
		return nil, 0, err
	}
	n, err := d.count(2)
	if err != nil {
		return nil, 0, err
	}
	return rel, n, nil
}

func fileLabel(file string) string {
	if file == "" {
		return "<memory>"
	}
	return file
}

// WriteSnapshot durably writes data as generation gen in dir: encode to a
// temp file, fsync it, rename into place, fsync the directory. A crash at
// any point leaves either no new snapshot or a complete one — never a
// half-visible generation, and an encode failure (oversized section)
// aborts before any file exists, leaving older generations untouched.
func WriteSnapshot(dir string, gen uint64, data *SnapshotData) (string, error) {
	if err := faultinject.Fire(faultinject.SiteSnapshotWrite); err != nil {
		return "", fmt.Errorf("wal: snapshot write: %w", err)
	}
	raw, err := EncodeSnapshot(data)
	if err != nil {
		return "", err
	}
	return WriteRawSnapshot(dir, gen, raw)
}

// WriteRawSnapshot durably writes already-encoded snapshot bytes as
// generation gen — the follower's install path, which must keep the file
// byte-identical to the primary's.
func WriteRawSnapshot(dir string, gen uint64, raw []byte) (string, error) {
	return writeRawFile(dir, snapshotName(gen), raw)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snap-%016x.snap", gen) }

func walName(gen uint64) string { return fmt.Sprintf("wal-%016x.log", gen) }
