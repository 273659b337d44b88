package sqlx

import (
	"errors"
	"fmt"
	"slices"

	"precis/internal/faultinject"
	"precis/internal/storage"
)

// Stats counts the physical work a query performed. The précis cost model
// (paper Formula 1) is expressed in exactly these units: index probes and
// tuple reads.
type Stats struct {
	IndexLookups int // hash-index probes
	TupleReads   int // tuples a statement returned, or postings a Probe read
	Scanned      int // tuples visited by full scans
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.IndexLookups += other.IndexLookups
	s.TupleReads += other.TupleReads
	s.Scanned += other.Scanned
}

// Result is the outcome of executing one statement. Its rows borrow the stored
// records, read through the statement's projection, which the Result holds.
type Result struct {
	Columns []string
	Rows    []storage.Row
	RowIDs  []storage.TupleID // parallel to Rows
	Stats   Stats
	proj    storage.Projection
}

// Engine executes statements against a storage database; it only reads it.
type Engine struct {
	db *storage.Database
}

// NewEngine wraps a database.
func NewEngine(db *storage.Database) *Engine { return &Engine{db: db} }

// Database returns the wrapped database.
func (e *Engine) Database() *storage.Database { return e.db }

// ExecStmt executes a statement; it only reads the database.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	if st == nil {
		return nil, errors.New("sql: nil statement")
	}
	if err := faultinject.Fire(faultinject.SiteSQLSelect); err != nil {
		return nil, fmt.Errorf("sql: select on %s: %w", st.Table, err)
	}
	rel := e.db.Relation(st.Table)
	if rel == nil {
		return nil, fmt.Errorf("sql: no relation %s", st.Table)
	}
	schema := rel.Schema()

	outCols := st.Columns
	if outCols == nil {
		outCols = schema.ColumnNames()
	}
	outIdx := make([]int, len(outCols))
	for i, c := range outCols {
		if outIdx[i] = schema.ColumnIndex(c); outIdx[i] < 0 {
			return nil, fmt.Errorf("sql: relation %s has no column %s", st.Table, c)
		}
	}
	ci := -1 // the column each tuple's value is checked against Values, if any
	if st.Col != "" {
		if ci = schema.ColumnIndex(st.Col); ci < 0 {
			return nil, fmt.Errorf("sql: relation %s has no column %s", st.Table, st.Col)
		}
	}
	res := &Result{Columns: outCols}

	// Plan: the listed ids, else a probe of Col's index, else a scan.
	var candidates []storage.TupleID
	plan := planAccess(rel, st)
	switch plan {
	case accessRowID:
		candidates = st.IDs
	case accessIndex:
		ci = -1 // every tuple a probe finds holds one of the values
		res.Stats.IndexLookups = len(st.Values)
		var err error
		if candidates, err = rel.AppendLookups(nil, nil, st.Col, st.Values); err != nil {
			return nil, fmt.Errorf("sql: access path on %s: %w", rel.Name(), err)
		}
		// One value's postings are ascending and duplicate-free; several
		// values' (the list may even repeat a value) are merged.
		if len(st.Values) > 1 {
			slices.Sort(candidates)
			candidates = slices.Compact(candidates)
		}
	}

	// The LIMIT stops the producer early (the RowNum-style top-k of the
	// paper): rows are emitted in output order, so the first Limit are kept.
	full := func() bool { return st.Limit >= 0 && len(res.Rows) >= st.Limit }
	room := 0 // rows the current block can still emit; 0 in a scan
	emit := func(id storage.TupleID, row storage.Row) {
		if st.Exclude != nil && st.Exclude.Has(id) || ci >= 0 && !holds(schema.Columns[ci].Type, row.Value(ci), st.Values) {
			return
		}
		if len(res.Rows) == cap(res.Rows) {
			res.Rows, res.RowIDs = slices.Grow(res.Rows, room), slices.Grow(res.RowIDs, room)
		}
		res.Rows, res.RowIDs = append(res.Rows, row), append(res.RowIDs, id)
		res.Stats.TupleReads++
	}

	if plan != accessScan {
		// The candidates are read a block at a time (Relation.AppendRows), so a
		// LIMIT reached mid-block has gathered at most one block too many, and
		// the result is sized by the tuples a block found, not by the ids asked
		// for: a shard is asked for every id of a fetch and holds a few.
		var block [fetchBlock]storage.Row
		for len(candidates) > 0 && !full() {
			n := min(len(candidates), fetchBlock)
			rows := rel.AppendRows(block[:0], candidates[:n])
			room = 0
			for _, row := range rows {
				if row.Valid() {
					room++
				}
			}
			if st.Limit >= 0 {
				room = min(room, st.Limit-len(res.Rows))
			}
			for i, row := range rows {
				if full() {
					break
				}
				if row.Valid() {
					emit(candidates[i], row)
				}
			}
			candidates = candidates[n:]
		}
	} else {
		rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
			if full() {
				return false
			}
			res.Stats.Scanned++
			emit(id, row)
			return true
		})
	}

	// The rows are the stored ones, read through the statement's projection.
	rel.Project(&res.proj, outIdx)
	for i, row := range res.Rows {
		res.Rows[i] = res.proj.Row(row)
	}
	return res, nil
}

// holds reports whether v, a value of a column of type t, is one of vals,
// each converted to t (ColType.Key) as an index lookup converts it.
func holds(t storage.ColType, v storage.Value, vals []storage.Value) bool {
	for _, w := range vals {
		if k, ok := t.Key(w); ok && k == v {
			return true
		}
	}
	return false
}

// fetchBlock is how many candidate ids a planned SELECT resolves at once.
const fetchBlock = 256

// accessKind names the access path of one SELECT.
type accessKind uint8

const (
	accessScan  accessKind = iota // visit every tuple
	accessRowID                   // fetch the listed ids
	accessIndex                   // probe Col's hash index with Values
)

// planAccess picks st's access path: its ids when it lists them, else a probe
// of Col's hash index when Col has one, else a scan. Planning touches no
// tuples and cannot fail.
func planAccess(rel *storage.Relation, st *SelectStmt) accessKind {
	switch {
	case st.IDs != nil:
		return accessRowID
	case st.Col != "" && rel.HasIndex(st.Col):
		return accessIndex
	}
	return accessScan
}
