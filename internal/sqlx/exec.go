package sqlx

import (
	"fmt"
	"math"
	"slices"

	"precis/internal/faultinject"
	"precis/internal/storage"
)

// RowIDColumn is the pseudo-column exposing tuple ids, mirroring Oracle's
// rowid in the paper's prototype.
const RowIDColumn = "rowid"

// Stats counts the physical work a query performed. The précis cost model
// (paper Formula 1) is expressed in exactly these units: index probes and
// tuple reads.
type Stats struct {
	IndexLookups int // hash-index probes
	TupleReads   int // tuples materialized into the result or filtered post-index
	Scanned      int // tuples visited by full scans
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.IndexLookups += other.IndexLookups
	s.TupleReads += other.TupleReads
	s.Scanned += other.Scanned
}

// Result is the outcome of executing one statement. Its rows borrow the stored
// records, read through the statement's projection, which the Result holds;
// only a computed column (rowid in the select list) makes a record of the
// statement's own.
type Result struct {
	Columns []string
	Rows    []storage.Row
	RowIDs  []storage.TupleID // parallel to Rows
	Stats   Stats
	proj    storage.Projection
}

// Engine executes statements against a storage database; it only reads it.
type Engine struct {
	db    *storage.Database
	total Stats
}

// NewEngine wraps a database.
func NewEngine(db *storage.Database) *Engine { return &Engine{db: db} }

// Database returns the wrapped database.
func (e *Engine) Database() *storage.Database { return e.db }

// TotalStats returns the stats AccumulateStats has gathered.
func (e *Engine) TotalStats() Stats { return e.total }

// ResetStats clears the cumulative stats.
func (e *Engine) ResetStats() { e.total = Stats{} }

// AccumulateStats merges externally measured work into the engine's
// cumulative totals. The parallel result-database generator runs each fetch
// on a private engine (so concurrent fetches never race on statistics) and
// folds the per-fetch stats back through this method, keeping TotalStats on
// the caller's engine meaningful for cost-model accounting.
func (e *Engine) AccumulateStats(s Stats) { e.total.Add(s) }

// ExecStmt executes a statement. It reads the database and leaves the engine's
// totals alone.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
	return e.execSelect(sel)
}

func (e *Engine) execSelect(st *SelectStmt) (*Result, error) {
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
	outIdx := make([]int, len(outCols)) // -1 means rowid
	for i, c := range outCols {
		if c == RowIDColumn {
			outIdx[i] = -1
			continue
		}
		ci := schema.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sql: relation %s has no column %s", st.Table, c)
		}
		outIdx[i] = ci
	}

	// Plan: an index-backed access path from the WHERE clause, else a scan.
	// The conjunct that produces the candidates is compiled out of the
	// per-tuple predicate when the access path already guarantees it.
	plan := planAccess(rel, st)
	pred, err := compileWhere(schema, st.Where, plan.source)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: outCols}

	planned := plan.kind != accessScan
	candidates, err := plan.candidates(rel, &res.Stats)
	if err != nil {
		return nil, err
	}

	// The LIMIT stops the producer early (the RowNum-style top-k of the
	// paper): rows are emitted in output order, so the first Limit are kept.
	limited := st.Limit >= 0

	// The rows are the stored ones, read through the statement's projection
	// once the result is complete.
	room := 0 // rows the current block can still emit; 0 in a scan
	emit := func(id storage.TupleID, row storage.Row) {
		if !pred.matches(id, row) {
			return
		}
		if len(res.Rows) == cap(res.Rows) {
			res.Rows, res.RowIDs = slices.Grow(res.Rows, room), slices.Grow(res.RowIDs, room)
		}
		res.Rows, res.RowIDs = append(res.Rows, row), append(res.RowIDs, id)
		res.Stats.TupleReads++
	}

	if planned {
		// The candidates are read a block at a time (Relation.AppendRows), so a
		// LIMIT reached mid-block has gathered at most one block too many, and
		// the result is sized by the tuples a block found, not by the ids asked
		// for: a shard is asked for every id of a fetch and holds a few.
		var block [fetchBlock]storage.Row
		for len(candidates) > 0 && !(limited && len(res.Rows) >= st.Limit) {
			n := min(len(candidates), fetchBlock)
			rows := rel.AppendRows(block[:0], candidates[:n])
			room = 0
			for _, row := range rows {
				if row.Valid() {
					room++
				}
			}
			if limited {
				room = min(room, st.Limit-len(res.Rows))
			}
			for i, row := range rows {
				if limited && len(res.Rows) >= st.Limit {
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
			if limited && len(res.Rows) >= st.Limit {
				return false
			}
			res.Stats.Scanned++
			emit(id, row)
			return true
		})
	}

	res.project(rel, outIdx)
	return res, nil
}

// project makes the result's rows, each a row of rel, read the columns idx
// lists: through the result's projection of rel, or, when one of them is the
// rowid, from a record of the statement's own.
func (r *Result) project(rel *storage.Relation, idx []int) {
	if !slices.Contains(idx, -1) {
		rel.Project(&r.proj, idx)
		for i, row := range r.Rows {
			r.Rows[i] = r.proj.Row(row)
		}
		return
	}
	vals := make([]storage.Value, len(idx))
	for i, row := range r.Rows {
		for j, ci := range idx {
			vals[j] = column(r.RowIDs[i], row, ci)
		}
		r.Rows[i] = storage.MakeRow(vals...)
	}
}

// column returns column ci of the tuple id's row, -1 meaning the id.
func column(id storage.TupleID, row storage.Row, ci int) storage.Value {
	if ci < 0 {
		return storage.Int(int64(id))
	}
	return row.Value(ci)
}

// fetchBlock is how many candidate ids a planned SELECT resolves at once.
const fetchBlock = 256

// RowIDOrder reports whether planAccess would serve this WHERE clause from
// a top-level `rowid = v` / `rowid IN (...)` conjunct and, if so, returns
// the candidate tuple ids exactly as the executor would visit them: in
// predicate-list order, neither sorted nor deduplicated. Scatter/gather
// executors need this to merge per-shard results in the same order a
// single engine would emit them (the generator's weight-ordered IN-list
// fetches depend on that order surviving the merge).
func RowIDOrder(where Expr) ([]storage.TupleID, bool) {
	var buf [8]Expr
	ids, source := rowIDConjunct(appendConjuncts(buf[:0], where))
	return ids, source != nil
}

// WithRowIDs returns where with the conjunct RowIDOrder reads its ids from
// replaced by rowid IN (ids), whatever its spelling; a clause without one is
// returned as it is. where is not written (the AND nodes above the conjunct
// are copied), so a scatter/gather executor can narrow it for every shard.
func WithRowIDs(where Expr, ids []storage.TupleID) Expr {
	var buf [8]Expr
	_, source := rowIDConjunct(appendConjuncts(buf[:0], where))
	if source == nil {
		return where
	}
	return replaceConjunct(where, source, &RowIDIn{IDs: ids})
}

// replaceConjunct returns e with its first top-level conjunct old replaced.
func replaceConjunct(e, old, with Expr) Expr {
	if e == old {
		return with
	}
	if l, ok := e.(*Logical); ok && l.And {
		if left := replaceConjunct(l.Left, old, with); left != l.Left {
			return &Logical{And: true, Left: left, Right: l.Right}
		}
		if right := replaceConjunct(l.Right, old, with); right != l.Right {
			return &Logical{And: true, Left: l.Left, Right: right}
		}
	}
	return e
}

// rowIDConjunct finds the first conjunct that lists tuple ids — a RowIDIn
// node, whose ids are returned as they are, or `rowid = v` / `rowid IN (...)`,
// whose integer literals are converted — and returns the ids in list order.
func rowIDConjunct(conjuncts []Expr) ([]storage.TupleID, Expr) {
	for _, c := range conjuncts {
		if in, ok := c.(*RowIDIn); ok {
			return in.IDs, c
		}
		if col, vals, ok := eqOrInTarget(c); ok && col == RowIDColumn {
			return vals.rowIDs(), c
		}
	}
	return nil, nil
}

// accessKind names the access path of one SELECT.
type accessKind uint8

const (
	accessScan  accessKind = iota // visit every tuple
	accessRowID                   // fetch the ids a rowid = / IN conjunct lists
	accessIndex                   // probe a hash index with an = / IN conjunct's values
)

// accessPlan is the access path planAccess chose for one WHERE clause.
type accessPlan struct {
	kind accessKind
	col  string            // accessIndex: the indexed column
	vals probeValues       // accessIndex: the conjunct's values, in predicate order
	ids  []storage.TupleID // accessRowID: the conjunct's ids, in predicate order
	// source is the conjunct the candidates come from, set only when every
	// candidate satisfies it by construction, so the per-tuple predicate can
	// leave it out: a rowid plan visits exactly the listed ids, and a hash
	// probe returns exactly the tuples holding a probed key. It stays nil —
	// the full predicate is re-checked — when an indexed list holds a NULL
	// (the index stores NULL keys, but `x IN (NULL)` never matches).
	source Expr
}

// planAccess picks the access path for sel from the top-level AND-conjuncts
// of its WHERE clause, collected once: an equality or IN predicate on rowid
// wins (direct fetches, no index probe), then the first one on a hash-indexed
// column; otherwise a scan.
// Planning touches no tuples and cannot fail.
func planAccess(rel *storage.Relation, sel *SelectStmt) accessPlan {
	var buf [8]Expr
	conjuncts := appendConjuncts(buf[:0], sel.Where)
	if ids, source := rowIDConjunct(conjuncts); source != nil {
		return accessPlan{kind: accessRowID, ids: ids, source: source}
	}
	var index accessPlan
	for _, c := range conjuncts {
		col, vals, ok := eqOrInTarget(c)
		if !ok || index.kind != accessScan || !rel.HasIndex(col) {
			continue
		}
		hasNull, probeable := vals.shape()
		if !probeable {
			continue
		}
		index = accessPlan{kind: accessIndex, col: col, vals: vals}
		if !hasNull {
			index.source = c
		}
	}
	return index
}

// candidates executes the plan's index side: the tuple ids to visit, in the
// order the executor emits them (predicate-list order for a rowid plan,
// ascending ids otherwise), or nil for a scan. An index probe failure is
// propagated, never swallowed: silently treating a failed lookup as "no
// matches" would corrupt the answer without any signal.
func (p accessPlan) candidates(rel *storage.Relation, stats *Stats) (ids []storage.TupleID, err error) {
	switch p.kind {
	case accessRowID:
		ids = p.ids
	case accessIndex:
		vals := p.vals.list
		if p.vals.single {
			vals = []storage.Value{p.vals.one}
		}
		stats.IndexLookups += len(vals)
		if ids, err = appendPostings(nil, nil, rel, p.col, vals); err != nil {
			return nil, err
		}
		// One value's postings are ascending and duplicate-free; several
		// values' (IN lists may even repeat a value) are merged.
		if len(vals) > 1 {
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
	}
	return ids, nil
}

// maxExactFloat is 2^53: below it every integral float64 is exactly one
// int64, above it several int64s round to the same float64.
const maxExactFloat = 1 << 53

// indexKeys returns the hash-index keys a probe for v must look up in a
// column of type t. The index keys on exact values while comparison is
// numeric across Int and Float (Value.Equal), so a numeric literal probes
// every representation the column can store: `k = 1.0` finds Int(1) in an
// INT column, and `f = 1` finds both Int(1) and Float(1) in a FLOAT column.
// Every tuple under a returned key Equals v.
func indexKeys(t storage.ColType, v storage.Value) (keys [2]storage.Value, n int) {
	switch v.Kind() {
	case storage.KindInt:
		keys[0], n = v, 1
		if t == storage.TypeFloat {
			keys[1], n = storage.Float(float64(v.AsInt())), 2
		}
	case storage.KindFloat:
		f := v.AsFloat()
		if t == storage.TypeFloat {
			keys[0], n = v, 1
		}
		if f == math.Trunc(f) && math.Abs(f) < maxExactFloat {
			keys[n] = storage.Int(int64(f))
			n++
		}
	default:
		keys[0], n = v, 1
	}
	return keys, n
}

// appendConjuncts flattens nested ANDs onto dst; a nil expression adds
// nothing. Callers pass a small stack buffer so typical clauses never
// allocate.
func appendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if l, ok := e.(*Logical); ok && l.And {
		return appendConjuncts(appendConjuncts(dst, l.Left), l.Right)
	}
	return append(dst, e)
}

// probeValues are the literals of a `col = v` or `col IN (…)` conjunct. An
// equality carries its one value inline, so recognising a conjunct never
// allocates.
type probeValues struct {
	one    storage.Value
	list   []storage.Value
	single bool
}

func (p probeValues) len() int {
	if p.single {
		return 1
	}
	return len(p.list)
}

func (p probeValues) at(i int) storage.Value {
	if p.single {
		return p.one
	}
	return p.list[i]
}

// rowIDs reads the values as tuple ids, in order; non-integer entries name
// no tuple and are dropped.
func (p probeValues) rowIDs() []storage.TupleID {
	ids := make([]storage.TupleID, 0, p.len())
	for i := 0; i < p.len(); i++ {
		if v := p.at(i); v.Kind() == storage.KindInt {
			ids = append(ids, storage.TupleID(v.AsInt()))
		}
	}
	return ids
}

// shape reports whether the values include a NULL, and whether a hash index
// can answer them completely: a float at or beyond 2^53 equals several
// int64s the index cannot enumerate, so such a conjunct is left to the
// per-tuple predicate.
func (p probeValues) shape() (hasNull, probeable bool) {
	for i := 0; i < p.len(); i++ {
		switch v := p.at(i); v.Kind() {
		case storage.KindNull:
			hasNull = true
		case storage.KindFloat:
			if math.Abs(v.AsFloat()) >= maxExactFloat {
				return hasNull, false
			}
		}
	}
	return hasNull, true
}

// eqOrInTarget recognises `col = literal` (either side) and `col IN (...)`
// conjuncts and returns the column and candidate values.
func eqOrInTarget(e Expr) (string, probeValues, bool) {
	switch e := e.(type) {
	case *Compare:
		if e.Op != OpEq {
			break
		}
		if c, ok := e.Left.(*ColumnRef); ok {
			if lit, ok := e.Right.(*Literal); ok {
				return c.Name, probeValues{one: lit.Value, single: true}, true
			}
		}
		if c, ok := e.Right.(*ColumnRef); ok {
			if lit, ok := e.Left.(*Literal); ok {
				return c.Name, probeValues{one: lit.Value, single: true}, true
			}
		}
	case *InList:
		if e.Not {
			break
		}
		if c, ok := e.Left.(*ColumnRef); ok {
			return c.Name, probeValues{list: e.Values}, true
		}
	}
	return "", probeValues{}, false
}

// predicate is a compiled WHERE clause; nil matches every tuple.
type predicate func(id storage.TupleID, row storage.Row) bool

// scalar is a compiled column reference or literal.
type scalar func(id storage.TupleID, row storage.Row) storage.Value

// matches reports whether the tuple id, row satisfies the predicate.
func (p predicate) matches(id storage.TupleID, row storage.Row) bool { return p == nil || p(id, row) }

// compiler turns a parsed predicate into closures once per statement: every
// column reference is validated and resolved to its position up front, so
// errors surface before the first tuple is read and evaluating a tuple does
// no name lookups.
type compiler struct {
	schema *storage.Schema
	skip   Expr
}

// compileWhere compiles where against schema. skip, when non-nil, is a
// top-level conjunct the access path already guarantees (accessPlan.source):
// it is validated like the rest but left out of the compiled predicate.
func compileWhere(schema *storage.Schema, where, skip Expr) (predicate, error) {
	if where == nil {
		return nil, nil
	}
	c := compiler{schema: schema, skip: skip}
	return c.conjunct(where)
}

// conjunct compiles along the top-level AND spine — the only place skip can
// sit — and returns nil for a subtree that reduces to true.
func (c *compiler) conjunct(e Expr) (predicate, error) {
	if l, ok := e.(*Logical); ok && l.And {
		left, err := c.conjunct(l.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.conjunct(l.Right)
		if err != nil {
			return nil, err
		}
		switch {
		case left == nil:
			return right, nil
		case right == nil:
			return left, nil
		}
		return func(id storage.TupleID, row storage.Row) bool { return left(id, row) && right(id, row) }, nil
	}
	p, err := c.boolean(e)
	if err != nil || e == c.skip {
		return nil, err
	}
	return p, nil
}

func (c *compiler) scalar(e Expr) (scalar, error) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Name == RowIDColumn {
			return func(id storage.TupleID, _ storage.Row) storage.Value { return storage.Int(int64(id)) }, nil
		}
		ci := c.schema.ColumnIndex(e.Name)
		if ci < 0 {
			return nil, fmt.Errorf("sql: relation %s has no column %s", c.schema.Name, e.Name)
		}
		return func(_ storage.TupleID, row storage.Row) storage.Value { return row.Value(ci) }, nil
	case *Literal:
		v := e.Value
		return func(storage.TupleID, storage.Row) storage.Value { return v }, nil
	default:
		return nil, fmt.Errorf("sql: expression %q is not a scalar", exprString(e))
	}
}

func (c *compiler) boolean(e Expr) (predicate, error) {
	switch e := e.(type) {
	case *Compare:
		left, err := c.scalar(e.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.scalar(e.Right)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(id storage.TupleID, row storage.Row) bool {
			l, r := left(id, row), right(id, row)
			// SQL three-valued logic: comparisons with NULL are not true.
			if l.IsNull() || r.IsNull() {
				return false
			}
			switch op {
			case OpEq:
				return l.Equal(r)
			case OpNe:
				return !l.Equal(r)
			case OpLt:
				return l.Compare(r) < 0
			case OpLe:
				return l.Compare(r) <= 0
			case OpGt:
				return l.Compare(r) > 0
			case OpGe:
				return l.Compare(r) >= 0
			}
			return false
		}, nil
	case *InList:
		left, err := c.scalar(e.Left)
		if err != nil {
			return nil, err
		}
		values, not := e.Values, e.Not
		return func(id storage.TupleID, row storage.Row) bool {
			l := left(id, row)
			if l.IsNull() {
				return false
			}
			found := false
			for _, v := range values {
				if l.Equal(v) {
					found = true
					break
				}
			}
			return found != not
		}, nil
	case *RowIDIn:
		ids := e.IDs
		return func(id storage.TupleID, row storage.Row) bool { return slices.Contains(ids, id) }, nil
	case *RowIDInSet:
		set, not := e.Set, e.Not
		if set == nil {
			return nil, fmt.Errorf("sql: expression %q has no set", exprString(e))
		}
		return func(id storage.TupleID, row storage.Row) bool { return set.Has(id) != not }, nil
	case *Logical:
		left, err := c.boolean(e.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.boolean(e.Right)
		if err != nil {
			return nil, err
		}
		if e.And {
			return func(id storage.TupleID, row storage.Row) bool { return left(id, row) && right(id, row) }, nil
		}
		return func(id storage.TupleID, row storage.Row) bool { return left(id, row) || right(id, row) }, nil
	case *Not:
		inner, err := c.boolean(e.Inner)
		if err != nil {
			return nil, err
		}
		return func(id storage.TupleID, row storage.Row) bool { return !inner(id, row) }, nil
	default:
		return nil, fmt.Errorf("sql: expression %q is not boolean", exprString(e))
	}
}
