package core

import "precis/internal/parallel"

// The pool implementation lives in internal/parallel so the inverted-index
// builder can share it; core re-exports the API its callers already use.

// MaxWorkers caps any worker pool the engine spawns; beyond this the
// coordination overhead dominates on the read-mostly workloads the
// generator runs.
const MaxWorkers = parallel.MaxWorkers

// NormalizeWorkers resolves a requested pool size: 0 means one worker per
// logical CPU (runtime.GOMAXPROCS), negatives mean serial, and everything
// is capped at MaxWorkers.
func NormalizeWorkers(n int) int { return parallel.NormalizeWorkers(n) }

// PanicError wraps a panic that escaped a ParallelFor worker, carrying the
// panicking goroutine's stack. ParallelFor re-raises it on the calling
// goroutine, and the engine boundary converts it into ErrInternal — so one
// poisoned tuple can never kill the process.
type PanicError = parallel.PanicError

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines, returning when all calls finished; see parallel.For for the
// chunking and panic-isolation contract.
func ParallelFor(n, workers int, fn func(i int)) { parallel.For(n, workers, fn) }
