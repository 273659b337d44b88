package core

import (
	"strconv"
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
	// checked per inserted tuple, in the canonical insertion order, so the
	// cut is exact and deterministic.
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

// budgetTracker enforces a Budget during one generation run, on the
// goroutine that runs it.
type budgetTracker struct {
	b      Budget
	steps  int
	tuples int
	bytes  int
	reason TruncationReason // the first exhaustion, set once; TruncateNone while the budget holds
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

// Reason returns the recorded truncation reason (TruncateNone while the
// budget holds).
func (t *budgetTracker) Reason() TruncationReason {
	if t == nil {
		return TruncateNone
	}
	return t.reason
}

// checkDeadline trips the deadline dimension when the clock has passed it,
// and reports whether any dimension has tripped.
func (t *budgetTracker) checkDeadline() bool {
	if t == nil {
		return false
	}
	if t.reason != TruncateNone {
		return true
	}
	if !t.b.Deadline.IsZero() && t.now().After(t.b.Deadline) {
		t.reason = TruncateDeadline
		return true
	}
	return false
}

// admitStep accounts one join edge and reports whether it may execute.
func (t *budgetTracker) admitStep() bool {
	if t == nil {
		return true
	}
	if t.checkDeadline() {
		return false
	}
	if t.b.MaxJoinSteps > 0 && t.steps >= t.b.MaxJoinSteps {
		t.reason = TruncateStepBudget
		return false
	}
	t.steps++
	return true
}

// admitTuple accounts one materialized tuple of the given row and reports
// whether it may be inserted. Seed inserts pass seed=true: they are always
// admitted (the answer's guaranteed core) but still accounted, so the budget
// is charged for them.
func (t *budgetTracker) admitTuple(id storage.TupleID, row storage.Row, seed bool) bool {
	if t == nil {
		return true
	}
	if !seed {
		if t.checkDeadline() {
			return false
		}
		if t.b.MaxTuples > 0 && t.tuples >= t.b.MaxTuples {
			t.reason = TruncateTupleBudget
			return false
		}
		if t.b.MaxResultBytes > 0 && t.bytes >= t.b.MaxResultBytes {
			t.reason = TruncateByteBudget
			return false
		}
	}
	t.tuples++
	if t.b.MaxResultBytes > 0 { // the only reader of bytes
		t.bytes += approxRowBytes(id, row)
	}
	return true
}

// remainingTuples returns the number of tuples the budget still admits (used
// to tighten fetch limits); MaxInt when unbounded.
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
