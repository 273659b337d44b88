package core

// ParallelFor panic-isolation tests: a panic on a worker goroutine must
// reach the caller as a *parallel.PanicError carrying the worker's stack (first
// panic wins, the pool drains cleanly), while the serial path propagates
// the raw panic value exactly like a plain loop.

import (
	"strings"
	"sync/atomic"
	"testing"

	"precis/internal/parallel"
)

func TestParallelForRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForWorkerPanicBecomesPanicError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		pe, ok := r.(*parallel.PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "boom-42" {
			t.Fatalf("panic value = %v, want boom-42", pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("worker stack not captured: %q", pe.Stack)
		}
		if !strings.Contains(pe.Error(), "boom-42") || !strings.Contains(pe.Error(), "worker stack") {
			t.Fatalf("Error() rendering incomplete: %s", pe.Error())
		}
	}()
	ParallelFor(100, 4, func(i int) {
		if i == 42 {
			panic("boom-42")
		}
	})
}

// TestParallelForFirstPanicWins: many workers panic; exactly one PanicError
// surfaces and the pool still quiesces (no goroutine leak, no deadlock —
// the test completing under -race is the assertion).
func TestParallelForFirstPanicWins(t *testing.T) {
	var ran atomic.Int64
	defer func() {
		r := recover()
		pe, ok := r.(*parallel.PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if s, ok := pe.Value.(string); !ok || !strings.HasPrefix(s, "boom-") {
			t.Fatalf("unexpected panic value: %v", pe.Value)
		}
		// Poisoning stops chunk handout: with every call panicking, far
		// fewer than n indices should have run (each worker dies on its
		// first chunk).
		if ran.Load() >= 10000 {
			t.Fatalf("poisoned pool kept pulling work: %d calls", ran.Load())
		}
	}()
	ParallelFor(10000, 8, func(i int) {
		ran.Add(1)
		panic("boom-" + string(rune('a'+i%26)))
	})
}

// TestParallelForSerialPanicUnwrapped: the serial path must behave exactly
// like a plain loop — the panic value arrives unwrapped.
func TestParallelForSerialPanicUnwrapped(t *testing.T) {
	defer func() {
		if r := recover(); r != "plain" {
			t.Fatalf("serial panic = %v (%T), want the raw value", r, r)
		}
	}()
	ParallelFor(3, 1, func(i int) { panic("plain") })
}
