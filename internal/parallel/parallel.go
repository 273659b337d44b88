// Package parallel holds the engine's deterministic worker pool: a
// chunked, panic-isolating parallel-for shared by the result-database
// generator (internal/core) and the inverted-index builder
// (internal/invidx). It lives in its own leaf package so both can use it
// without an import cycle — core's in-package tests build indexes, so
// invidx cannot import core directly.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MaxWorkers caps any worker pool the engine spawns; beyond this the
// coordination overhead dominates on the read-mostly workloads the
// generator runs.
const MaxWorkers = 64

// NormalizeWorkers resolves a requested pool size: 0 means one worker per
// logical CPU (runtime.GOMAXPROCS), negatives mean serial, and everything
// is capped at MaxWorkers.
func NormalizeWorkers(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	if n > MaxWorkers {
		return MaxWorkers
	}
	return n
}

// PanicError wraps a panic that escaped a For worker, carrying the
// panicking goroutine's stack. For re-raises it on the calling goroutine,
// and the engine boundary converts it into ErrInternal — so one poisoned
// tuple can never kill the process.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker goroutine's stack trace.
	Stack []byte
}

// Error renders the panic value and the captured worker stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines,
// returning when all calls finished. With workers <= 1 (or a single item)
// it degenerates to a plain loop on the calling goroutine, so serial paths
// pay no synchronization cost. Otherwise the calling goroutine is one of the
// workers: For spawns workers-1 goroutines and runs the last worker's loop
// itself, so a caller that finishes last never parks. Work is handed out
// through an atomic counter in chunks (so tiny per-item tasks don't pay one
// synchronization per index), which makes the mapping of index to goroutine
// arbitrary — fn must be safe to call concurrently and should only write
// state owned by its index (e.g. slot i of a results slice).
//
// Panic isolation: a panic inside fn does not crash the process, whether it
// happens on a spawned goroutine or on the caller's share. The first
// panicking worker records its value and stack, the remaining workers stop
// pulling new chunks and drain, and once the pool has quiesced the panic is
// re-raised on the calling goroutine as a *PanicError. (On the serial path
// the panic propagates to the caller unwrapped, exactly as a plain loop
// would.)
func For(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Chunked handout: aim for a few chunks per worker so the pool stays
	// balanced under skewed task costs without an atomic op per index.
	p := &pool{n: n, chunk: max(1, n/(workers*4)), fn: fn}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.spawned()
	}
	p.work()
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// pool is what the workers of one For share, in one allocation.
type pool struct {
	n, chunk int
	fn       func(i int)
	next     atomic.Int64 // the first index not handed out yet
	poisoned atomic.Bool  // a worker panicked: hand out no more
	once     sync.Once
	panicked *PanicError // the first panic, written under once
	wg       sync.WaitGroup
}

func (p *pool) spawned() {
	defer p.wg.Done()
	p.work()
}

// work is one worker's loop, the caller's included: chunks until none is
// left or the pool is poisoned, a panic in fn recovered and recorded.
func (p *pool) work() {
	defer func() {
		if r := recover(); r != nil {
			// First panic wins; later ones are dropped (they are almost
			// always the same fault hit by another chunk).
			p.once.Do(func() { p.panicked = &PanicError{Value: r, Stack: debug.Stack()} })
			p.poisoned.Store(true)
		}
	}()
	for !p.poisoned.Load() {
		lo := int(p.next.Add(int64(p.chunk))) - p.chunk
		hi := min(lo+p.chunk, p.n)
		for i := lo; i < hi; i++ {
			p.fn(i)
		}
		if hi == p.n {
			return
		}
	}
}
