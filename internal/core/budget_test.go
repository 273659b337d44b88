package core

// Tests for the resource budget: tracker unit semantics, budget-truncated
// generation (prefix exactness, determinism, dangling-FK
// trimming), deadline truncation under a fake clock, and the cooperative
// context checks inside the per-join tuple loops.

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/sqlx"
	"precis/internal/storage"
)

func TestBudgetIsZero(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero Budget must report IsZero")
	}
	for _, b := range []Budget{
		{Deadline: time.Now()},
		{MaxTuples: 1},
		{MaxJoinSteps: 1},
		{MaxResultBytes: 1},
	} {
		if b.IsZero() {
			t.Fatalf("budget %+v must not report IsZero", b)
		}
	}
	if newBudgetTracker(Budget{}) != nil {
		t.Fatal("zero budget must produce a nil tracker")
	}
}

func TestBudgetTrackerNilReceiver(t *testing.T) {
	var bt *budgetTracker
	if bt.Reason() != TruncateNone || bt.checkDeadline() {
		t.Fatal("nil tracker must be a permissive no-op")
	}
	if !bt.admitStep() || !bt.admitTuple(0, storage.MakeRow(), false) {
		t.Fatal("nil tracker must admit everything")
	}
}

func TestBudgetTrackerTupleAndByteAccounting(t *testing.T) {
	row := storage.MakeRow(storage.String("abc"))
	bt := newBudgetTracker(Budget{MaxTuples: 2})
	if !bt.admitTuple(1, row, false) || !bt.admitTuple(1, row, false) {
		t.Fatal("first two tuples must be admitted")
	}
	if bt.admitTuple(1, row, false) {
		t.Fatal("third tuple must be refused")
	}
	if got := bt.Reason(); got != TruncateTupleBudget {
		t.Fatalf("reason = %q, want %q", got, TruncateTupleBudget)
	}
	// Seed rows are always admitted, even after exhaustion, but charged.
	if !bt.admitTuple(1, row, true) {
		t.Fatal("seed tuple must always be admitted")
	}

	bt = newBudgetTracker(Budget{MaxResultBytes: 1})
	if !bt.admitTuple(1, row, false) {
		t.Fatal("the first tuple is admitted before the byte check can trip")
	}
	if bt.admitTuple(1, row, false) {
		t.Fatal("byte budget exceeded, second tuple must be refused")
	}
	if got := bt.Reason(); got != TruncateByteBudget {
		t.Fatalf("reason = %q, want %q", got, TruncateByteBudget)
	}
}

func TestBudgetTrackerStepAccounting(t *testing.T) {
	bt := newBudgetTracker(Budget{MaxJoinSteps: 2})
	if !bt.admitStep() || !bt.admitStep() {
		t.Fatal("first two steps must be admitted")
	}
	if bt.admitStep() {
		t.Fatal("third step must be refused")
	}
	if got := bt.Reason(); got != TruncateStepBudget {
		t.Fatalf("reason = %q, want %q", got, TruncateStepBudget)
	}
}

func TestBudgetTrackerDeadlineFakeClock(t *testing.T) {
	clock := time.Unix(1000, 0)
	bt := newBudgetTracker(Budget{
		Deadline: time.Unix(1005, 0),
		Now:      func() time.Time { return clock },
	})
	if bt.checkDeadline() {
		t.Fatal("deadline not reached yet")
	}
	clock = time.Unix(1006, 0)
	if !bt.checkDeadline() {
		t.Fatal("deadline passed, check must trip")
	}
	if got := bt.Reason(); got != TruncateDeadline {
		t.Fatalf("reason = %q, want %q", got, TruncateDeadline)
	}
	// First trip wins: a later tuple refusal must not overwrite the reason.
	if bt.admitTuple(0, storage.MakeRow(), false) {
		t.Fatal("exhausted tracker must refuse tuples")
	}
	if got := bt.Reason(); got != TruncateDeadline {
		t.Fatalf("reason overwritten: %q", got)
	}
}

// TestBudgetTruncatedGeneration runs the §5.2 example under a tuple budget
// and asserts the run is marked partial, stays within budget, keeps the
// seeds, and is the same on a second run.
func TestBudgetTruncatedGeneration(t *testing.T) {
	for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
		eng, rs, seeds := exampleSetup(t, 0.1)
		full, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), strat, DBGenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seedCount := 0
		for _, ids := range seeds {
			seedCount += len(ids)
		}
		budget := seedCount + 2
		if full.DB.TotalTuples() <= budget {
			t.Fatalf("example answer too small (%d tuples) to exercise MaxTuples=%d",
				full.DB.TotalTuples(), budget)
		}
		ref, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), strat,
			DBGenOptions{Budget: Budget{MaxTuples: budget}})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Truncation != TruncateTupleBudget || !ref.Partial() {
			t.Fatalf("%v: truncation = %q partial=%v, want tuple-budget",
				strat, ref.Truncation, ref.Partial())
		}
		if got := ref.DB.TotalTuples(); got != budget {
			t.Fatalf("%v: partial answer has %d tuples, budget is %d", strat, got, budget)
		}
		rd, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), strat,
			DBGenOptions{Budget: Budget{MaxTuples: budget}})
		if err != nil {
			t.Fatal(err)
		}
		if rd.Truncation != ref.Truncation {
			t.Fatalf("%v: truncation %q, first run %q", strat, rd.Truncation, ref.Truncation)
		}
		if rd.DB.TotalTuples() != ref.DB.TotalTuples() {
			t.Fatalf("%v: %d tuples, first run %d", strat, rd.DB.TotalTuples(), ref.DB.TotalTuples())
		}
		for _, rel := range ref.DB.RelationNames() {
			if rd.DB.Relation(rel).Len() != ref.DB.Relation(rel).Len() {
				t.Fatalf("%v: relation %s differs", strat, rel)
			}
		}
	}
}

// TestBudgetPartialTrimsDanglingForeignKeys asserts a truncated result
// database passes its own integrity check: FK edges whose referenced tuples
// were cut are dropped rather than left dangling.
func TestBudgetPartialTrimsDanglingForeignKeys(t *testing.T) {
	db, g, err := dataset.Chain(dataset.ChainConfig{Relations: 3, RowsPerRel: 40, Fanout: 3, Seed: 3, UniformRows: true})
	if err != nil {
		t.Fatal(err)
	}
	seeds, rels := chainSeeds(t, db, "tokR0")
	rs, err := GenerateSchema(g, rels, MinPathWeight(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := GenerateDatabaseOpts(sqlx.NewEngine(db), rs, seeds, Unlimited(), StrategyNaive,
		DBGenOptions{Budget: Budget{MaxTuples: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Partial() {
		t.Fatal("budget did not truncate the chain answer")
	}
	if v := storage.CheckIntegrity(rd.DB); len(v) != 0 {
		t.Fatalf("partial answer has %d dangling references: %+v", len(v), v)
	}
}

// TestBudgetTrimSurvivesLookupFault: the integrity check behind the trim used
// to go through the storage lookup site and read a failed lookup as a
// satisfied reference, so a fault there left a violated foreign key on the
// truncated answer. The trim now cannot fail.
func TestBudgetTrimSurvivesLookupFault(t *testing.T) {
	// One join step from the Woody Allen seeds reaches CAST through ACTOR
	// and stops: its movies are not there yet.
	eng, rs, seeds := exampleSetup(t, 0.1)
	gen, err := newGenerator(eng, rs, seeds, Unlimited(), StrategyNaive, DBGenOptions{Budget: Budget{MaxJoinSteps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.placeSeeds(seeds); err != nil {
		t.Fatal(err)
	}
	if err := gen.executeJoins(); err != nil {
		t.Fatal(err)
	}
	carried := len(gen.out.ForeignKeys())
	if len(storage.CheckIntegrity(gen.out)) == 0 {
		t.Fatal("the truncated answer has nothing dangling: the test checks nothing")
	}
	plan := faultinject.NewPlan().Set(faultinject.SiteStorageLookup, faultinject.Rule{Err: errors.New("injected")})
	deactivate := faultinject.Activate(plan)
	rd := gen.result()
	deactivate()
	if v := storage.CheckIntegrity(rd.DB); len(v) != 0 {
		t.Fatalf("a lookup fault left %d dangling references on the partial answer: %+v", len(v), v)
	}
	if kept := len(rd.DB.ForeignKeys()); kept >= carried {
		t.Fatalf("no foreign key trimmed: %d carried over, %d kept", carried, kept)
	}
}

// TestBudgetExpiredDeadlineKeepsSeeds: a deadline that lapsed before
// generation still yields the full seed set (never an empty answer) marked
// with the deadline reason.
func TestBudgetExpiredDeadlineKeepsSeeds(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.1)
	rd, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), StrategyAuto,
		DBGenOptions{Budget: Budget{
			Deadline: time.Unix(1000, 0),
			Now:      func() time.Time { return time.Unix(2000, 0) },
		}})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Truncation != TruncateDeadline {
		t.Fatalf("truncation = %q, want deadline", rd.Truncation)
	}
	want := 0
	for _, ids := range seeds {
		want += len(ids)
	}
	if got := rd.DB.TotalTuples(); got != want {
		t.Fatalf("expired-deadline answer has %d tuples, want the %d seeds", got, want)
	}
}

// TestContextCanceledBeforeGeneration is the regression test for the
// cooperative cancellation threading: a pre-canceled context must abort
// generation with a wrapped context.Canceled for every strategy, observed
// within one tuple pick (no answer is returned at all).
func TestContextCanceledBeforeGeneration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
		eng, rs, seeds := exampleSetup(t, 0.1)
		rd, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), strat,
			DBGenOptions{Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", strat, err)
		}
		if rd != nil {
			t.Fatalf("%v: canceled generation returned an answer", strat)
		}
	}
}

// cancelingFetcher cancels its context when the statement it is asked returns.
type cancelingFetcher struct {
	Fetcher
	cancel context.CancelFunc
}

func (f *cancelingFetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	defer f.cancel()
	return f.Fetcher.ExecStmt(st)
}

// TestContextCanceledMidFetch: a cancellation that arrives while a fetch runs
// is seen at the first tuple pick after it — no row of that fetch is admitted.
func TestContextCanceledMidFetch(t *testing.T) {
	eng, rs, seeds := exampleSetup(t, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, err := newGenerator(&cancelingFetcher{eng, cancel}, rs, seeds, Unlimited(), StrategyNaive, DBGenOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.placeSeeds(seeds); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g.total != 0 || g.out.TotalTuples() != 0 {
		t.Fatalf("%d tuples admitted after the cancellation", g.out.TotalTuples())
	}
}

// chainSeeds resolves a token on a chain dataset the way the engine would.
func chainSeeds(t *testing.T, db *storage.Database, token string) (map[string][]storage.TupleID, []string) {
	t.Helper()
	seeds := map[string][]storage.TupleID{}
	var rels []string
	for _, rel := range db.RelationNames() {
		r := db.Relation(rel)
		var ids []storage.TupleID
		r.Scan(func(tu storage.Tuple) bool {
			for _, v := range tu.Values {
				if strings.Contains(v.String(), token) {
					ids = append(ids, tu.ID)
					break
				}
			}
			return true
		})
		if len(ids) > 0 {
			seeds[rel] = ids
			rels = append(rels, rel)
		}
	}
	if len(seeds) == 0 {
		t.Fatalf("token %q not found in dataset", token)
	}
	return seeds, rels
}

// countingFetcher counts the statements the generator actually executes.
type countingFetcher struct {
	Fetcher
	executed atomic.Int64
}

func (c *countingFetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	c.executed.Add(1)
	return c.Fetcher.ExecStmt(st)
}

// Probe counts as a statement: GenStats.Queries charges it as one.
func (c *countingFetcher) Probe(rel, col string, values []storage.Value) (*sqlx.Groups, error) {
	c.executed.Add(1)
	return c.Fetcher.Probe(rel, col, values)
}

// TestQueriesCountsExecutedStatementsUnderDeadline trips a fake-clock
// deadline at every possible point of a Round-Robin generation — before a
// join's probe, between rounds, mid-apply — and requires GenStats.Queries to
// equal the statements that reached the fetcher: a fetch the deadline
// skipped is not a query. (Queries used to count one per driving value
// whether or not its scan ran.)
func TestQueriesCountsExecutedStatementsUnderDeadline(t *testing.T) {
	deadline := time.Unix(1000, 0)
	eng, rs, seeds := exampleSetup(t, 0.1)
	full, err := GenerateDatabaseOpts(eng, rs, seeds, Unlimited(), StrategyRoundRobin, DBGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for tripAfter := 0; ; tripAfter++ {
		calls := 0
		now := func() time.Time {
			calls++
			if calls > tripAfter {
				return deadline.Add(time.Second)
			}
			return deadline.Add(-time.Second)
		}
		cf := &countingFetcher{Fetcher: eng}
		rd, err := GenerateDatabaseOpts(cf, rs, seeds, Unlimited(), StrategyRoundRobin,
			DBGenOptions{Budget: Budget{Deadline: deadline, Now: now}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rd.Stats.Queries, int(cf.executed.Load()); got != want {
			t.Fatalf("deadline after %d clock reads: Queries = %d, %d statements executed", tripAfter, got, want)
		}
		seen[rd.Stats.Queries] = true
		if tripAfter == 0 {
			// Already expired: the seed fetches, one per seed relation, and nothing else.
			if rd.Stats.Queries != len(seeds) || rd.Truncation != TruncateDeadline {
				t.Fatalf("expired deadline: Queries = %d (want the %d seed fetches), truncation %q",
					rd.Stats.Queries, len(seeds), rd.Truncation)
			}
		}
		if rd.Truncation == TruncateNone {
			if rd.Stats.Queries != full.Stats.Queries || rd.DB.TotalTuples() != full.DB.TotalTuples() {
				t.Fatalf("deadline never reached: %d queries / %d tuples, unbudgeted run %d / %d",
					rd.Stats.Queries, rd.DB.TotalTuples(), full.Stats.Queries, full.DB.TotalTuples())
			}
			break
		}
	}
	if len(seen) < 4 {
		t.Fatalf("the sweep only produced statement counts %v: the deadline is not cutting mid-generation", seen)
	}
}

// TestApproxRowBytesIsTheRenderedSize: a tuple is charged 16 bytes plus, for
// its rowid and each value, 8 and the length of its display text — what the
// tracker charged when it rendered every value into a string to measure it
// and the rowid travelled as the row's first cell — so no MaxResultBytes
// truncation point moved when it stopped doing either. Measuring allocates
// nothing.
func TestApproxRowBytesIsTheRenderedSize(t *testing.T) {
	long := strings.Repeat("x", 100)
	rows := [][]storage.Value{
		nil,
		{storage.Null, storage.Bool(true), storage.Bool(false)},
		{storage.Int(0), storage.Int(-1), storage.Int(math.MinInt64), storage.Int(math.MaxInt64)},
		{storage.Float(0), storage.Float(-1.5), storage.Float(math.NaN()), storage.Float(math.Inf(-1)), storage.Float(-math.MaxFloat64), storage.Float(1e21)},
		{storage.String(""), storage.String("Match Point"), storage.String(long), storage.String("NULL")},
	}
	for _, id := range []storage.TupleID{1, 9, 10, 376149, math.MaxInt64} {
		for _, row := range rows {
			want := 16
			for _, v := range append([]storage.Value{storage.Int(int64(id))}, row...) {
				want += 8 + len(v.String())
			}
			if got := approxRowBytes(id, storage.MakeRow(row...)); got != want {
				t.Errorf("approxRowBytes(%d, %v) = %d, rendered %d", id, row, got, want)
			}
		}
	}
	floats, texts := storage.MakeRow(rows[3]...), storage.MakeRow(rows[4]...)
	if n := testing.AllocsPerRun(100, func() { approxRowBytes(376149, floats); approxRowBytes(7, texts) }); n != 0 {
		t.Errorf("measuring a row allocates %v times", n)
	}
}
