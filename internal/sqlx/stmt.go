// Package sqlx is the statement executor through which the précis engine
// talks to the storage layer, mirroring the paper's architecture in which the
// result database is produced "by submitting to the database a series of
// selection queries without joins". It executes one statement, a struct with
// no SQL text to parse:
//
//	SELECT cols FROM t [WHERE rowid IN (ids)] [AND col IN (values)]
//	                   [AND rowid NOT IN exclude] [LIMIT n]
//
// These are the three reads of the paper's Result Database Generator (§5.2):
// the seed tuples and the tuples Round-Robin chose, by rowid, and NaïveQ's
// top-k over the driving values with the tuples already in D′ excluded. LIMIT
// plays the role of Oracle's RowNum top-k cut-off.
package sqlx

import "precis/internal/storage"

// Stmt is a statement an Engine executes: the generator, the scatter/gather
// fetcher and the tests fill one in, and nothing writes through one.
type Stmt = *SelectStmt

// SelectStmt is one SELECT. A tuple is returned when it passes every part the
// statement sets; the access path is the first of IDs, an index on Col, and a
// scan.
type SelectStmt struct {
	Columns []string // nil means *; an empty list selects ids only
	Table   string
	// IDs, unless nil, lists the tuples to fetch: they are visited in list
	// order, a repeated id is returned each time and one that names no live
	// tuple not at all. The slice is never written.
	IDs []storage.TupleID
	// Col, unless empty, keeps the tuples whose Col Equals one of Values. NULL
	// matches nothing; a numeric value matches every numeric kind it Equals.
	Col    string
	Values []storage.Value
	// Exclude, unless nil, drops the tuples it holds.
	Exclude IDSet
	Limit   int // -1 means no limit
}

// IDSet is a caller-owned set of tuple ids that a statement consults without
// enumerating it. *storage.ResultRelation satisfies it (membership = the
// tuple is in D'). Has must be safe for concurrent readers: a scatter/gather
// executor runs the same statement's set on every shard at once.
type IDSet interface {
	Has(id storage.TupleID) bool
}
