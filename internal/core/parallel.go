package core

import "precis/internal/parallel"

// NormalizeWorkers and ParallelFor re-export internal/parallel for
// benchmark/replay.go, their last caller; the engine itself runs a query on
// the caller's goroutine. The next change to the benchmark deletes both.

// NormalizeWorkers resolves a requested pool size: see
// parallel.NormalizeWorkers.
func NormalizeWorkers(n int) int { return parallel.NormalizeWorkers(n) }

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines: see parallel.For.
func ParallelFor(n, workers int, fn func(i int)) { parallel.For(n, workers, fn) }
