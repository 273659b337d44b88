package storage

import (
	"fmt"
)

// VerifySubDatabase checks the four conditions of the paper's query model
// (§3.3) that make sub a précis-style sub-database of orig:
//
//  1. every relation name in sub occurs in orig;
//  2. every relation's attribute set in sub is a subset of its attributes
//     in orig;
//  3. every tuple in sub is the projection (on sub's attributes) of the
//     orig tuple with the same id: each value the same kind and payload
//     (==), so an Int does not pass for the Float it Equals;
//  4. every foreign key of orig whose endpoints both survive in sub is
//     join-consistent within sub: a non-NULL reference value appearing in
//     sub either finds a referenced tuple in sub or the referenced side of
//     that value is absent entirely (the cardinality constraint may cut
//     referenced tuples; what must never happen is a *wrong* tuple).
//
// It returns nil when all conditions hold, otherwise a descriptive error for
// the first violation found.
func VerifySubDatabase(orig, sub *Database) error {
	for _, name := range sub.RelationNames() {
		sr := sub.Relation(name)
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
// returns per-key statistics. A cardinality-capped précis may legitimately
// drop referenced tuples, so this is a measurement, not a hard invariant;
// tests use it to compare the NaïveQ and Round-Robin strategies.
func CheckJoinConsistency(orig, sub *Database) []JoinConsistency {
	var out []JoinConsistency
	for _, fk := range orig.ForeignKeys() {
		from := sub.Relation(fk.FromRelation)
		to := sub.Relation(fk.ToRelation)
		if from == nil || to == nil {
			continue
		}
		fi := from.Schema().ColumnIndex(fk.FromColumn)
		if fi < 0 || !to.Schema().HasColumn(fk.ToColumn) {
			continue
		}
		jc := JoinConsistency{ForeignKey: fk}
		from.ScanRows(func(_ TupleID, row Row) bool {
			v := row.Value(fi)
			if v.IsNull() {
				return true
			}
			jc.Referencing++
			ids, err := to.Lookup(fk.ToColumn, v)
			if err == nil && len(ids) > 0 {
				jc.Satisfied++
			}
			return true
		})
		out = append(out, jc)
	}
	return out
}
