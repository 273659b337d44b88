package main

import (
	"sort"
	"strconv"
	"syscall"
	"time"
)

// kernelKeys is the size of the reference kernel. Changing it, or anything
// else in kernel, redefines the calibrated millisecond and is a
// benchmark-version change.
const kernelKeys = 3000

// kernelSink keeps the compiler from discarding the kernel's result.
var kernelSink int

// kernel is the frozen reference workload every time metric is divided by.
// It formats kernelKeys keys into a map, sorts them and probes them: about
// one millisecond and 300 KiB of garbage on the reference box. It resembles
// the program under test (allocation, maps, strings, sort) so that it speeds
// up and slows down with the machine the way the program does, and it
// imports nothing from the repository so no change to the program moves it.
func kernel() {
	m := make(map[string]int)
	keys := make([]string, 0, kernelKeys)
	for i := 0; i < kernelKeys; i++ {
		k := "k" + strconv.Itoa(i*7919%kernelKeys) + ":" + strconv.Itoa(i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := 0
	for _, k := range keys {
		s += m[k]
	}
	kernelSink += s
}

// cpuNow returns the CPU time (user + system) this process has consumed.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrator times interleaved kernel calls in wall and process CPU time.
type calibrator struct {
	wallNS []float64
	cpu    time.Duration
}

// call runs the kernel once and records how long it took.
func (c *calibrator) call() {
	c0 := cpuNow()
	t0 := time.Now()
	kernel()
	c.wallNS = append(c.wallNS, float64(time.Since(t0)))
	c.cpu += cpuNow() - c0
}

func (c *calibrator) calls() int { return len(c.wallNS) }

// factor is F: the 10%-trimmed mean wall time of a kernel call in raw
// milliseconds, that is, how many raw milliseconds one calibrated
// millisecond lasted while this calibrator ran. Raw time ÷ F = calibrated
// time.
func (c *calibrator) factor() float64 { return trimmedMean(c.wallNS, trimFrac) / 1e6 }

// cpuPerCall is the mean process CPU one kernel call consumed.
func (c *calibrator) cpuPerCall() time.Duration {
	if len(c.wallNS) == 0 {
		return 0
	}
	return c.cpu / time.Duration(len(c.wallNS))
}
