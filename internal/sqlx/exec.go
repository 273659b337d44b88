package sqlx

import (
	"fmt"
	"math"
	"slices"
	"sort"

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

// Result is the outcome of executing one statement. A SELECT's rows are
// read-only: one whose columns are a run of the relation's, in schema order,
// is the stored row itself (capacity capped at its length), which the
// relation and every other reader of it share.
type Result struct {
	Columns  []string
	Rows     [][]storage.Value
	RowIDs   []storage.TupleID // parallel to Rows for SELECTs
	Affected int               // rows inserted/deleted
	Stats    Stats
}

// Engine executes SQL against a storage database and accumulates stats.
type Engine struct {
	db    *storage.Database
	total Stats
}

// NewEngine wraps a database.
func NewEngine(db *storage.Database) *Engine { return &Engine{db: db} }

// Database returns the wrapped database.
func (e *Engine) Database() *storage.Database { return e.db }

// TotalStats returns the cumulative stats across all executed statements.
func (e *Engine) TotalStats() Stats { return e.total }

// ResetStats clears the cumulative stats.
func (e *Engine) ResetStats() { e.total = Stats{} }

// AccumulateStats merges externally measured work into the engine's
// cumulative totals. The parallel result-database generator runs each fetch
// on a private engine (so concurrent fetches never race on statistics) and
// folds the per-fetch stats back through this method, keeping TotalStats on
// the caller's engine meaningful for cost-model accounting.
func (e *Engine) AccumulateStats(s Stats) { e.total.Add(s) }

// Exec parses and executes one statement.
func (e *Engine) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := e.ExecStmt(st)
	if err != nil {
		return nil, err
	}
	e.total.Add(res.Stats)
	return res, nil
}

// MustExec is Exec that panics on error, for fixtures and tests.
func (e *Engine) MustExec(src string) *Result {
	res, err := e.Exec(src)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecStmt executes an already-parsed statement.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	switch st := st.(type) {
	case *SelectStmt:
		return e.execSelect(st)
	case *InsertStmt:
		return e.execInsert(st)
	case *CreateTableStmt:
		_, err := e.db.CreateRelation(st.Schema)
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DeleteStmt:
		return e.execDelete(st)
	case *UpdateStmt:
		return e.execUpdate(st)
	case *DropTableStmt:
		if err := e.db.DropRelation(st.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		rel := e.db.Relation(st.Table)
		if rel == nil {
			return nil, fmt.Errorf("sql: no relation %s", st.Table)
		}
		var err error
		if st.Ordered {
			_, err = rel.CreateOrderedIndex(st.Column)
		} else {
			err = rel.CreateIndex(st.Column)
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *ExplainStmt:
		return e.execExplain(st)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func (e *Engine) execInsert(st *InsertStmt) (*Result, error) {
	if _, err := e.db.Insert(st.Table, st.Values...); err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

func (e *Engine) execDelete(st *DeleteStmt) (*Result, error) {
	rel := e.db.Relation(st.Table)
	if rel == nil {
		return nil, fmt.Errorf("sql: no relation %s", st.Table)
	}
	pred, err := compileWhere(rel.Schema(), st.Where, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var doomed []storage.TupleID
	rel.Scan(func(t storage.Tuple) bool {
		res.Stats.Scanned++
		if pred.matches(t) {
			doomed = append(doomed, t.ID)
		}
		return true
	})
	for _, id := range doomed {
		if _, err := e.db.Delete(st.Table, id); err != nil {
			return nil, err
		}
	}
	res.Affected = len(doomed)
	return res, nil
}

func (e *Engine) execUpdate(st *UpdateStmt) (*Result, error) {
	rel := e.db.Relation(st.Table)
	if rel == nil {
		return nil, fmt.Errorf("sql: no relation %s", st.Table)
	}
	schema := rel.Schema()
	setIdx := make([]int, len(st.Set))
	for i, sc := range st.Set {
		ci := schema.ColumnIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sql: relation %s has no column %s", st.Table, sc.Column)
		}
		setIdx[i] = ci
	}
	pred, err := compileWhere(schema, st.Where, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	// Collect matching ids first so index maintenance during the update
	// cannot disturb the scan.
	var matched []storage.TupleID
	rel.Scan(func(t storage.Tuple) bool {
		res.Stats.Scanned++
		if pred.matches(t) {
			matched = append(matched, t.ID)
		}
		return true
	})
	for _, id := range matched {
		t, ok := rel.Get(id)
		if !ok {
			continue
		}
		vals := append([]storage.Value(nil), t.Values...)
		for i, sc := range st.Set {
			vals[setIdx[i]] = sc.Value
		}
		if err := e.db.Update(st.Table, id, vals); err != nil {
			return nil, err
		}
		res.Affected++
	}
	return res, nil
}

// execExplain reports the access path execSelect would take — the plan of
// the same planAccess call, rendered: "rowid fetch (n ids)", "index(col)
// probes=n", "range(col)" or "scan".
func (e *Engine) execExplain(st *ExplainStmt) (*Result, error) {
	rel := e.db.Relation(st.Inner.Table)
	if rel == nil {
		return nil, fmt.Errorf("sql: no relation %s", st.Inner.Table)
	}
	// Validate the inner statement's predicate as execution would.
	if _, err := compileWhere(rel.Schema(), st.Inner.Where, nil); err != nil {
		return nil, err
	}
	plan := planAccess(rel, st.Inner)
	return &Result{
		Columns: []string{"plan"},
		Rows:    [][]storage.Value{{storage.String(plan.String())}},
		RowIDs:  []storage.TupleID{0},
	}, nil
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
	// ORDER BY keys may name any column of the relation, not only projected
	// ones; capture their positions for key extraction at emit time.
	orderIdx := make([]int, len(st.OrderBy)) // -1 means rowid
	for i, k := range st.OrderBy {
		if k.Column == RowIDColumn {
			orderIdx[i] = -1
			continue
		}
		ci := schema.ColumnIndex(k.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %s does not exist in %s", k.Column, st.Table)
		}
		orderIdx[i] = ci
	}

	res := &Result{Columns: outCols}

	planned := plan.kind != accessScan
	candidates, err := plan.candidates(rel, &res.Stats)
	if err != nil {
		return nil, err
	}

	// ORDER BY served by an ordered index: when no WHERE access path was
	// chosen and the single sort key has a B-tree index covering every
	// tuple (no NULLs in the column, which the index skips), stream ids in
	// index order and skip the sort — with LIMIT this is a top-k that never
	// materializes the full result.
	orderedByIndex := false
	if !planned && !st.Distinct && len(st.OrderBy) == 1 {
		key := st.OrderBy[0]
		if ix := rel.OrderedIndexOn(key.Column); ix != nil && ix.Len() == rel.Len() {
			ids := make([]storage.TupleID, 0, ix.Len())
			ix.Range(nil, nil, func(_ storage.Value, id storage.TupleID) bool {
				ids = append(ids, id)
				return true
			})
			if key.Desc {
				for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
			res.Stats.IndexLookups++
			candidates, planned, orderedByIndex = ids, true, true
		}
	}

	// When no post-processing will reorder or cut rows, the LIMIT (plus any
	// OFFSET) can stop the producer early (the RowNum-style top-k of the
	// paper). An index-ordered producer already emits in output order.
	earlyCount := -1
	if st.Limit >= 0 && (len(st.OrderBy) == 0 || orderedByIndex) && !st.Distinct {
		earlyCount = st.Limit + st.Offset
	}
	earlyLimit := earlyCount >= 0

	// A projection that is a run of the relation's columns in schema order
	// borrows the stored row, which nobody writes (storage's ownership rule);
	// only a reordering or gapped one is copied.
	lo, hi, borrowed := columnRun(outIdx)

	var rows, keys rowArena
	var sortKeys [][]storage.Value
	room := 0 // rows the current block can still emit; 0 in a scan
	emit := func(t storage.Tuple) {
		if !pred.matches(t) {
			return
		}
		if len(res.Rows) == cap(res.Rows) {
			res.Rows, res.RowIDs = slices.Grow(res.Rows, room), slices.Grow(res.RowIDs, room)
		}
		if borrowed {
			res.Rows = append(res.Rows, t.Values[lo:hi:hi])
		} else {
			res.Rows = append(res.Rows, rows.project(t, outIdx))
		}
		res.RowIDs = append(res.RowIDs, t.ID)
		if len(orderIdx) > 0 {
			sortKeys = append(sortKeys, keys.project(t, orderIdx))
		}
		res.Stats.TupleReads++
	}

	if planned {
		// The candidates are read a block at a time (Relation.AppendTuples), so
		// a LIMIT reached mid-block has gathered at most one block too many, and
		// the result is sized by the tuples a block found, not by the ids asked
		// for: a shard is asked for every id of a fetch and holds a few.
		var block [fetchBlock]storage.Tuple
		for len(candidates) > 0 && !(earlyLimit && len(res.Rows) >= earlyCount) {
			n := min(len(candidates), fetchBlock)
			tuples := rel.AppendTuples(block[:0], candidates[:n])
			room = len(tuples)
			if earlyLimit {
				room = min(room, earlyCount-len(res.Rows))
			}
			rows.next, keys.next = room, room
			for _, t := range tuples {
				if earlyLimit && len(res.Rows) >= earlyCount {
					break
				}
				emit(t)
			}
			candidates = candidates[n:]
		}
	} else {
		rel.Scan(func(t storage.Tuple) bool {
			if earlyLimit && len(res.Rows) >= earlyCount {
				return false
			}
			res.Stats.Scanned++
			emit(t)
			return true
		})
	}

	// Sort before deduplication: dedupe keeps first occurrences in order,
	// so a sorted input stays sorted, and the sort-key slice stays aligned
	// with the rows it was captured for.
	if len(st.OrderBy) > 0 && !orderedByIndex {
		res.sortByKeys(st.OrderBy, sortKeys)
	}
	if st.Distinct {
		res.dedupe()
	}
	if st.Offset > 0 {
		if st.Offset >= len(res.Rows) {
			res.Rows = nil
			res.RowIDs = nil
		} else {
			res.Rows = res.Rows[st.Offset:]
			res.RowIDs = res.RowIDs[st.Offset:]
		}
	}
	if st.Limit >= 0 && len(res.Rows) > st.Limit {
		res.Rows = res.Rows[:st.Limit]
		res.RowIDs = res.RowIDs[:st.Limit]
	}
	return res, nil
}

// fetchBlock is how many candidate ids a planned SELECT resolves at once.
const fetchBlock = 256

// rowArena carves the rows a statement has to copy — sort keys, and the rows
// of a projection that reorders or skips columns — out of shared arrays, so
// they cost an allocation per array instead of one per row: an array per
// block of a planned SELECT, made for the rows the block can still emit
// (next, set by the caller: one array per statement up to fetchBlock rows),
// and for a scan arrays doubling from 16 rows to 512. A row's capacity is its
// length — appending to one cannot write its neighbour — and holding one row
// keeps its whole array alive.
type rowArena struct {
	next int // rows the next array is made for
	free []storage.Value
}

// project returns a new row holding t's values at the positions idx lists
// (the same list on every call), -1 meaning its id.
func (a *rowArena) project(t storage.Tuple, idx []int) []storage.Value {
	if len(a.free) < len(idx) {
		if a.next == 0 {
			a.next = 16
		}
		a.free = make([]storage.Value, a.next*len(idx))
		a.next = min(2*a.next, 512)
	}
	row := a.free[:len(idx):len(idx)]
	a.free = a.free[len(idx):]
	for i, ci := range idx {
		if ci < 0 {
			row[i] = storage.Int(int64(t.ID))
		} else {
			row[i] = t.Values[ci]
		}
	}
	return row
}

// columnRun reports whether idx lists consecutive column positions in
// ascending order, and if so which: lo, lo+1, …, hi-1.
func columnRun(idx []int) (lo, hi int, ok bool) {
	if len(idx) == 0 || idx[0] < 0 {
		return 0, 0, false
	}
	for i, ci := range idx {
		if ci != idx[0]+i {
			return 0, 0, false
		}
	}
	return idx[0], idx[0] + len(idx), true
}

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
	accessRange                   // walk an ordered index between bounds
)

// accessPlan is the access path planAccess chose for one WHERE clause.
// execSelect executes it and EXPLAIN prints it, so the two cannot disagree.
type accessPlan struct {
	kind accessKind
	col  string            // accessIndex, accessRange: the indexed column
	vals probeValues       // accessIndex: the conjunct's values, in predicate order
	ids  []storage.TupleID // accessRowID: the conjunct's ids, in predicate order
	lo   *storage.Bound
	hi   *storage.Bound
	// source is the conjunct the candidates come from, set only when every
	// candidate satisfies it by construction, so the per-tuple predicate can
	// leave it out: a rowid plan visits exactly the listed ids, and a hash
	// probe returns exactly the tuples holding a probed key. It stays nil —
	// the full predicate is re-checked — when an indexed list holds a NULL
	// (the index stores NULL keys, but `x IN (NULL)` never matches) and for
	// range plans (bounds fold several conjuncts).
	source Expr
}

// String renders the plan the way EXPLAIN reports it.
func (p accessPlan) String() string {
	switch p.kind {
	case accessRowID:
		return fmt.Sprintf("rowid fetch (%d ids)", len(p.ids))
	case accessIndex:
		return fmt.Sprintf("index(%s) probes=%d", p.col, p.vals.len())
	case accessRange:
		return fmt.Sprintf("range(%s)", p.col)
	default:
		return "scan"
	}
}

// planAccess picks the access path for sel from the top-level AND-conjuncts
// of its WHERE clause, collected once: an equality or IN predicate on rowid
// wins (direct fetches, no index probe), then the first one on a hash-indexed
// column, then a range over an ordered (B-tree) index; otherwise a scan.
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
	if index.kind == accessIndex {
		return index
	}
	if col, lo, hi, ok := rangeTarget(rel, conjuncts); ok {
		return accessPlan{kind: accessRange, col: col, lo: lo, hi: hi}
	}
	return accessPlan{}
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
	case accessRange:
		stats.IndexLookups++
		rel.OrderedIndexOn(p.col).Range(p.lo, p.hi, func(_ storage.Value, id storage.TupleID) bool {
			ids = append(ids, id)
			return true
		})
		slices.Sort(ids)
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

// rangeTarget folds the top-level range conjuncts (col < v, col >= v, ...)
// over a single ordered-indexed column into [lo, hi] bounds. It returns ok
// when at least one bound exists on some ordered-indexed column; remaining
// predicates are re-checked by the evaluator as usual.
func rangeTarget(rel *storage.Relation, conjuncts []Expr) (string, *storage.Bound, *storage.Bound, bool) {
	type bounds struct{ lo, hi *storage.Bound }
	perCol := map[string]*bounds{}
	order := []string{}
	for _, c := range conjuncts {
		cmp, ok := c.(*Compare)
		if !ok {
			continue
		}
		var col string
		var lit storage.Value
		op := cmp.Op
		if cr, ok := cmp.Left.(*ColumnRef); ok {
			if l, ok := cmp.Right.(*Literal); ok {
				col, lit = cr.Name, l.Value
			}
		} else if cr, ok := cmp.Right.(*ColumnRef); ok {
			if l, ok := cmp.Left.(*Literal); ok {
				// Flip: v < col means col > v.
				col, lit = cr.Name, l.Value
				switch op {
				case OpLt:
					op = OpGt
				case OpLe:
					op = OpGe
				case OpGt:
					op = OpLt
				case OpGe:
					op = OpLe
				}
			}
		}
		if col == "" || lit.IsNull() || rel.OrderedIndexOn(col) == nil {
			continue
		}
		b := perCol[col]
		if b == nil {
			b = &bounds{}
			perCol[col] = b
			order = append(order, col)
		}
		switch op {
		case OpGt:
			b.lo = tighterLo(b.lo, &storage.Bound{Value: lit, Inclusive: false})
		case OpGe:
			b.lo = tighterLo(b.lo, &storage.Bound{Value: lit, Inclusive: true})
		case OpLt:
			b.hi = tighterHi(b.hi, &storage.Bound{Value: lit, Inclusive: false})
		case OpLe:
			b.hi = tighterHi(b.hi, &storage.Bound{Value: lit, Inclusive: true})
		}
	}
	for _, col := range order {
		b := perCol[col]
		if b.lo != nil || b.hi != nil {
			return col, b.lo, b.hi, true
		}
	}
	return "", nil, nil, false
}

// tighterLo keeps the stricter (larger) lower bound.
func tighterLo(a, b *storage.Bound) *storage.Bound {
	if a == nil {
		return b
	}
	c := b.Value.Compare(a.Value)
	if c > 0 || (c == 0 && !b.Inclusive) {
		return b
	}
	return a
}

// tighterHi keeps the stricter (smaller) upper bound.
func tighterHi(a, b *storage.Bound) *storage.Bound {
	if a == nil {
		return b
	}
	c := b.Value.Compare(a.Value)
	if c < 0 || (c == 0 && !b.Inclusive) {
		return b
	}
	return a
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

// dedupe removes duplicate rows (by rendered values), keeping first
// occurrences in order.
func (r *Result) dedupe() {
	seen := make(map[string]bool, len(r.Rows))
	outRows := r.Rows[:0]
	outIDs := r.RowIDs[:0]
	for i, row := range r.Rows {
		key := ""
		for _, v := range row {
			key += v.SQL() + "\x00"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		outRows = append(outRows, row)
		outIDs = append(outIDs, r.RowIDs[i])
	}
	r.Rows = outRows
	r.RowIDs = outIDs
}

// sortByKeys orders rows by pre-extracted key values (parallel to Rows),
// so the sort keys may name columns the projection dropped.
func (r *Result) sortByKeys(keys []OrderKey, sortKeys [][]storage.Value) {
	type pair struct {
		row  []storage.Value
		id   storage.TupleID
		keys []storage.Value
	}
	pairs := make([]pair, len(r.Rows))
	for i := range r.Rows {
		pairs[i] = pair{r.Rows[i], r.RowIDs[i], sortKeys[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		for k := range keys {
			cmp := pairs[i].keys[k].Compare(pairs[j].keys[k])
			if keys[k].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	for i := range pairs {
		r.Rows[i] = pairs[i].row
		r.RowIDs[i] = pairs[i].id
	}
}

// predicate is a compiled WHERE clause; nil matches every tuple.
type predicate func(t storage.Tuple) bool

// scalar is a compiled column reference or literal.
type scalar func(t storage.Tuple) storage.Value

// matches reports whether tuple t satisfies the predicate.
func (p predicate) matches(t storage.Tuple) bool { return p == nil || p(t) }

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
		return func(t storage.Tuple) bool { return left(t) && right(t) }, nil
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
			return func(t storage.Tuple) storage.Value { return storage.Int(int64(t.ID)) }, nil
		}
		ci := c.schema.ColumnIndex(e.Name)
		if ci < 0 {
			return nil, errf(e.Pos, "relation %s has no column %s", c.schema.Name, e.Name)
		}
		return func(t storage.Tuple) storage.Value { return t.Values[ci] }, nil
	case *Literal:
		v := e.Value
		return func(storage.Tuple) storage.Value { return v }, nil
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
		return func(t storage.Tuple) bool {
			l, r := left(t), right(t)
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
		return func(t storage.Tuple) bool {
			l := left(t)
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
		return func(t storage.Tuple) bool { return slices.Contains(ids, t.ID) }, nil
	case *RowIDInSet:
		set, not := e.Set, e.Not
		if set == nil {
			return nil, fmt.Errorf("sql: expression %q has no set", exprString(e))
		}
		return func(t storage.Tuple) bool { return set.Has(t.ID) != not }, nil
	case *Like:
		left, err := c.scalar(e.Left)
		if err != nil {
			return nil, err
		}
		pattern, not := e.Pattern, e.Not
		return func(t storage.Tuple) bool {
			l := left(t)
			if l.Kind() != storage.KindString {
				return false
			}
			return likeMatch(pattern, l.AsString()) != not
		}, nil
	case *IsNull:
		left, err := c.scalar(e.Left)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(t storage.Tuple) bool { return left(t).IsNull() != not }, nil
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
			return func(t storage.Tuple) bool { return left(t) && right(t) }, nil
		}
		return func(t storage.Tuple) bool { return left(t) || right(t) }, nil
	case *Not:
		inner, err := c.boolean(e.Inner)
		if err != nil {
			return nil, err
		}
		return func(t storage.Tuple) bool { return !inner(t) }, nil
	default:
		return nil, fmt.Errorf("sql: expression %q is not boolean", exprString(e))
	}
}
