package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"precis/internal/storage"
)

// TruncationReason says which resource budget stopped a result-database
// generation early. The empty string means the answer is complete.
type TruncationReason string

const (
	// TruncateNone: the generation ran to completion.
	TruncateNone TruncationReason = ""
	// TruncateDeadline: the wall-clock deadline passed mid-generation.
	TruncateDeadline TruncationReason = "deadline"
	// TruncateTupleBudget: the materialized-tuple budget ran out.
	TruncateTupleBudget TruncationReason = "tuple-budget"
	// TruncateStepBudget: the join-step budget ran out.
	TruncateStepBudget TruncationReason = "step-budget"
	// TruncateByteBudget: the approximate result-byte budget ran out.
	TruncateByteBudget TruncationReason = "byte-budget"
)

// Budget bounds the physical resources one result-database generation may
// consume. Unlike the paper's degree and cardinality constraints — which
// shape what the ideal answer looks like — a Budget is a runtime guard: when
// it runs out the generator stops the best-first expansion at the next
// deterministic checkpoint and returns the prefix answer built so far,
// marked with a TruncationReason, instead of an error. Seed tuples (the
// tuples that contain the query tokens) are always materialized in full, so
// a budgeted answer is never empty when the query matched anything.
//
// The zero value imposes no bounds.
type Budget struct {
	// Deadline is the wall-clock instant after which generation stops.
	// Zero means no deadline.
	Deadline time.Time
	// MaxTuples bounds the number of tuples materialized into the result
	// database, across all relations. 0 means unlimited. Exhaustion is
	// checked per inserted tuple, so the cut is exact and — because
	// inserts are serialized in the canonical order for every worker-pool
	// size — deterministic.
	MaxTuples int
	// MaxJoinSteps bounds how many join edges the generator executes.
	// 0 means unlimited.
	MaxJoinSteps int
	// MaxResultBytes approximately bounds the rendered size of the result
	// data (sum of value encodings plus per-tuple overhead). 0 means
	// unlimited. Like MaxTuples it is checked per inserted tuple.
	MaxResultBytes int
	// Now, when non-nil, replaces time.Now for deadline checks — a test
	// hook that makes deadline truncation deterministic. Leave nil in
	// production.
	Now func() time.Time
}

// IsZero reports whether the budget imposes no bounds.
func (b Budget) IsZero() bool {
	return b.Deadline.IsZero() && b.MaxTuples <= 0 && b.MaxJoinSteps <= 0 && b.MaxResultBytes <= 0
}

// budgetTracker enforces a Budget during one generation run. Tuple, byte
// and step accounting happen only on the coordination goroutine (inserts
// and edge picks are serialized there), but deadline checks also run inside
// fetch workers, and the first-exhaustion record must be race-safe — hence
// the atomic reason slot.
type budgetTracker struct {
	b      Budget
	steps  int
	tuples int
	bytes  int
	// reason holds the first TruncationReason observed; CAS so the first
	// exhaustion wins under concurrent deadline checks.
	reason atomic.Pointer[TruncationReason]
}

// newBudgetTracker returns a tracker, or nil for a zero budget (nil
// receivers make every check a no-op, so unbudgeted queries pay nothing).
func newBudgetTracker(b Budget) *budgetTracker {
	if b.IsZero() {
		return nil
	}
	return &budgetTracker{b: b}
}

// now resolves the tracker's clock.
func (t *budgetTracker) now() time.Time {
	if t.b.Now != nil {
		return t.b.Now()
	}
	return time.Now()
}

// trip records the first exhaustion reason and reports the current one.
func (t *budgetTracker) trip(r TruncationReason) {
	t.reason.CompareAndSwap(nil, &r)
}

// Reason returns the recorded truncation reason (TruncateNone while the
// budget holds).
func (t *budgetTracker) Reason() TruncationReason {
	if t == nil {
		return TruncateNone
	}
	if p := t.reason.Load(); p != nil {
		return *p
	}
	return TruncateNone
}

// exhausted reports whether any budget dimension has tripped.
func (t *budgetTracker) exhausted() bool {
	return t != nil && t.reason.Load() != nil
}

// checkDeadline trips the deadline dimension when the clock has passed it.
// Safe to call from fetch workers.
func (t *budgetTracker) checkDeadline() bool {
	if t == nil {
		return false
	}
	if t.reason.Load() != nil {
		return true
	}
	if !t.b.Deadline.IsZero() && t.now().After(t.b.Deadline) {
		t.trip(TruncateDeadline)
		return true
	}
	return false
}

// admitStep accounts one join edge and reports whether it may execute.
// Coordination goroutine only.
func (t *budgetTracker) admitStep() bool {
	if t == nil {
		return true
	}
	if t.checkDeadline() || t.exhausted() {
		return false
	}
	if t.b.MaxJoinSteps > 0 && t.steps >= t.b.MaxJoinSteps {
		t.trip(TruncateStepBudget)
		return false
	}
	t.steps++
	return true
}

// admitTuple accounts one materialized tuple of the given row and reports
// whether it may be inserted. Coordination goroutine only. Seed inserts
// pass seed=true: they are always admitted (the answer's guaranteed core)
// but still accounted, so the budget is charged for them.
func (t *budgetTracker) admitTuple(id storage.TupleID, row storage.Row, seed bool) bool {
	if t == nil {
		return true
	}
	if !seed {
		if t.checkDeadline() || t.exhausted() {
			return false
		}
		if t.b.MaxTuples > 0 && t.tuples >= t.b.MaxTuples {
			t.trip(TruncateTupleBudget)
			return false
		}
		if t.b.MaxResultBytes > 0 && t.bytes >= t.b.MaxResultBytes {
			t.trip(TruncateByteBudget)
			return false
		}
	}
	t.tuples++
	if t.b.MaxResultBytes > 0 { // the only reader of bytes
		t.bytes += approxRowBytes(id, row)
	}
	return true
}

// remainingTuples returns the optimistic number of tuples the budget still
// admits (used to tighten fetch limits); MaxInt-ish when unbounded.
func (t *budgetTracker) remainingTuples() int {
	if t == nil || t.b.MaxTuples <= 0 {
		return int(^uint(0) >> 1) // MaxInt
	}
	r := t.b.MaxTuples - t.tuples
	if r < 0 {
		return 0
	}
	return r
}

// approxRowBytes estimates the rendered size of one fetched tuple: the text
// lengths of its rowid and values plus a fixed per-value overhead. Numbers
// are measured through a stack buffer and strings by their length, so a
// budgeted query renders nothing to be measured.
func approxRowBytes(id storage.TupleID, row storage.Row) int {
	var buf [32]byte
	n := 16 + 8 + len(strconv.AppendInt(buf[:0], int64(id), 10)) // per-tuple overhead, rowid
	for i := 0; i < row.Len(); i++ {
		v := row.Value(i)
		n += 8
		if v.Kind() == storage.KindString {
			n += len(v.AsString())
		} else {
			n += len(v.AppendText(buf[:0]))
		}
	}
	return n
}
