package storage

import (
	"fmt"
)

// VerifySubDatabase checks that sub is a précis-style sub-database of orig
// (the paper's query model, §3.3): every relation of sub occurs in orig, with
// a subset of its attributes of the same types, and every tuple of sub is the
// projection of the orig tuple with the same id, each value the same kind and
// payload (==), so an Int does not pass for the Float it Equals. Join
// consistency, which a cardinality cap may legitimately break, is measured by
// CheckJoinConsistency. It returns nil when all hold, otherwise an error for
// the first violation found.
func VerifySubDatabase(orig *Database, sub Reader) error {
	for _, name := range sub.RelationNames() {
		sr := sub.Table(name)
		or := orig.Relation(name)
		if or == nil {
			return fmt.Errorf("subdb: relation %s does not exist in the original database", name)
		}
		// Condition 2: attribute subset.
		for _, c := range sr.Schema().Columns {
			oi := or.Schema().ColumnIndex(c.Name)
			if oi < 0 {
				return fmt.Errorf("subdb: %s.%s does not exist in the original schema", name, c.Name)
			}
			if or.Schema().Columns[oi].Type != c.Type {
				return fmt.Errorf("subdb: %s.%s changed type from %s to %s",
					name, c.Name, or.Schema().Columns[oi].Type, c.Type)
			}
		}
		// Condition 3: every tuple is a projection of the original tuple.
		var verr error
		sr.ScanRows(func(id TupleID, row Row) bool {
			orow, ok := or.Row(id)
			if !ok {
				verr = fmt.Errorf("subdb: %s tuple %d does not exist in the original relation", name, id)
				return false
			}
			for i, c := range sr.Schema().Columns {
				if v, o := row.Value(i), orow.Value(or.Schema().ColumnIndex(c.Name)); v != o {
					verr = fmt.Errorf("subdb: %s tuple %d column %s is %s %s, original has %s %s",
						name, id, c.Name, v.Kind(), v.String(), o.Kind(), o.String())
					return false
				}
			}
			return true
		})
		if verr != nil {
			return verr
		}
	}
	return nil
}

// JoinConsistency reports, for a foreign key whose columns survive in sub,
// how many referencing tuples find their referenced partner inside sub.
type JoinConsistency struct {
	ForeignKey  ForeignKey
	Referencing int // tuples in sub carrying a non-NULL reference
	Satisfied   int // of those, how many find a partner in sub
}

// CheckJoinConsistency evaluates every foreign key of orig that is fully
// contained in sub (both relations present and both columns projected) and
// returns per-key statistics: a measurement, not an invariant, since a
// cardinality-capped précis may legitimately drop referenced tuples.
func CheckJoinConsistency(orig *Database, sub Reader) []JoinConsistency {
	var out []JoinConsistency
	for _, fk := range orig.ForeignKeys() {
		jc := JoinConsistency{ForeignKey: fk}
		if references(sub, fk, func(_ TupleID, _ Value, held bool) {
			jc.Referencing++
			if held {
				jc.Satisfied++
			}
		}) {
			out = append(out, jc)
		}
	}
	return out
}
