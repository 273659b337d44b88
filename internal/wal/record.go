package wal

import (
	"fmt"

	"precis/internal/storage"
)

// Op identifies a logged mutation.
type Op uint8

// The logged mutation kinds. Insert covers both Insert and InsertWithID —
// the log always records the concrete tuple id the mutation used, so replay
// is deterministic regardless of how the id was chosen.
const (
	OpInsert Op = iota + 1
	OpUpdate
	OpDelete
	OpSynonym
	OpMacro
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpSynonym:
		return "synonym"
	case OpMacro:
		return "macro"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one logged mutation. Which fields are meaningful depends on Op:
//
//	OpInsert   Rel, ID, Values
//	OpUpdate   Rel, ID, Values
//	OpDelete   Rel, ID
//	OpSynonym  Alias, Canonical
//	OpMacro    Def
type Record struct {
	Op     Op
	Rel    string
	ID     storage.TupleID
	Values []storage.Value

	Alias, Canonical string
	Def              string
}

// encode appends the record's payload bytes (no frame) to dst.
func (r Record) encode(dst []byte) []byte {
	e := enc{b: dst}
	e.u8(uint8(r.Op))
	switch r.Op {
	case OpInsert, OpUpdate:
		e.str(r.Rel)
		e.uvarint(uint64(r.ID))
		e.uvarint(uint64(len(r.Values)))
		for _, v := range r.Values {
			e.value(v)
		}
	case OpDelete:
		e.str(r.Rel)
		e.uvarint(uint64(r.ID))
	case OpSynonym:
		e.str(r.Alias)
		e.str(r.Canonical)
	case OpMacro:
		e.str(r.Def)
	}
	return e.bytes()
}

// decodeRecord parses one WAL frame payload. It validates bounds on every
// field and rejects trailing garbage, so a decoded record is exactly what
// encode produced.
func decodeRecord(payload []byte) (Record, error) {
	d := &dec{b: payload}
	opb, err := d.u8()
	if err != nil {
		return Record{}, err
	}
	r := Record{Op: Op(opb)}
	switch r.Op {
	case OpInsert, OpUpdate:
		if r.Rel, err = d.str(); err == nil {
			var id uint64
			if id, err = d.uvarint(); err == nil {
				r.ID = storage.TupleID(id)
				r.Values, err = d.values(nil)
			}
		}
	case OpDelete:
		if r.Rel, err = d.str(); err == nil {
			var id uint64
			if id, err = d.uvarint(); err == nil {
				r.ID = storage.TupleID(id)
			}
		}
	case OpSynonym:
		if r.Alias, err = d.str(); err == nil {
			r.Canonical, err = d.str()
		}
	case OpMacro:
		r.Def, err = d.str()
	default:
		return Record{}, fmt.Errorf("unknown op %d", opb)
	}
	if err != nil {
		return Record{}, fmt.Errorf("%s record: %w", r.Op, err)
	}
	if !d.done() {
		return Record{}, fmt.Errorf("%s record: %d trailing bytes", r.Op, d.remaining())
	}
	return r, nil
}

// DecodeRecord parses one WAL frame payload — the exported form the
// replication follower applies to streamed frames.
func DecodeRecord(payload []byte) (Record, error) { return decodeRecord(payload) }

// apply replays one record onto the recovered state. Inserts use the logged
// tuple id, so a replayed database is id-identical to the pre-crash one.
func (r Record) apply(s *SnapshotData) error {
	switch r.Op {
	case OpInsert:
		return s.DB.InsertWithID(r.Rel, r.ID, r.Values...)
	case OpUpdate:
		return s.DB.Update(r.Rel, r.ID, r.Values)
	case OpDelete:
		_, err := s.DB.Delete(r.Rel, r.ID)
		return err
	case OpSynonym:
		s.setSynonym(r.Alias, r.Canonical)
		return nil
	case OpMacro:
		s.addMacro(r.Def)
		return nil
	default:
		return fmt.Errorf("unknown op %d", uint8(r.Op))
	}
}
