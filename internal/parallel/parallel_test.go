package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForVisitsEveryIndexOnce: whatever the pool size — more workers than
// items, one, none — every index is handed to fn exactly once.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64, 2000} {
			visits := make([]atomic.Int32, n)
			For(n, workers, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// forPanic runs For with an fn that panics with boom where panics says so, and
// returns what For re-raised and how many calls of fn were still running when
// it did.
func forPanic(n, workers int, panics func(i int) bool) (recovered any, inside int32) {
	var in atomic.Int32
	defer func() {
		recovered, inside = recover(), in.Load()
	}()
	For(n, workers, func(i int) {
		in.Add(1)
		defer in.Add(-1)
		if panics(i) {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
	return nil, in.Load()
}

// TestForPanicIsolation: a panic in fn — on the caller's share of the work or
// on a spawned worker's — comes back on the calling goroutine as a *PanicError
// with the panicking stack, and only once no goroutine is inside fn any more.
func TestForPanicIsolation(t *testing.T) {
	// With two indexes and two workers each side takes one chunk at least
	// once over the rounds, whichever index panics; with every index
	// panicking, both sides panic in the same call.
	cases := map[string]func(i int) bool{
		"first index":  func(i int) bool { return i == 0 },
		"last index":   func(i int) bool { return i == 1 },
		"every index":  func(int) bool { return true },
		"one of a lot": func(i int) bool { return i == 333 },
	}
	for name, panics := range cases {
		n := 2
		if name == "one of a lot" {
			n = 1000
		}
		for round := 0; round < 200; round++ {
			recovered, inside := forPanic(n, 4, panics)
			var pe *PanicError
			if err, ok := recovered.(error); !ok || !errors.As(err, &pe) {
				t.Fatalf("%s: For re-raised %T %v, want *PanicError", name, recovered, recovered)
			}
			if s, ok := pe.Value.(string); !ok || !strings.HasPrefix(s, "boom") {
				t.Fatalf("%s: panic value %v", name, pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "parallel.forPanic") || !strings.Contains(pe.Error(), "boom") {
				t.Fatalf("%s: stack does not reach the panicking fn:\n%s", name, pe.Error())
			}
			if inside != 0 {
				t.Fatalf("%s: For returned with %d calls of fn still running", name, inside)
			}
		}
	}
}

// goid names the calling goroutine, as the header of its stack trace does.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// await waits for ch to be closed, but not for ever: a For that never lets
// the awaited side run must fail its test, not hang it.
func await(ch chan struct{}) {
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
	}
}

// TestForCallerWorksAShare: For spawns workers-1 goroutines and runs the last
// worker's loop itself. A spawned worker is held inside its first index until
// the caller has run one, so the caller cannot be left without.
func TestForCallerWorksAShare(t *testing.T) {
	caller := goid()
	callerRan, once := make(chan struct{}), sync.Once{}
	var onCaller atomic.Int32
	For(64, 2, func(int) {
		if goid() != caller {
			await(callerRan)
			return
		}
		onCaller.Add(1)
		once.Do(func() { close(callerRan) })
	})
	if onCaller.Load() == 0 {
		t.Fatal("the calling goroutine ran no index")
	}
}

// TestForPanicOnEitherSide pins which goroutine panics: the caller on its
// share while the spawned worker is inside fn, then the spawned worker while
// the caller is (each side waits inside its index for the other to enter its
// own). Either way For re-raises a *PanicError, and not before the side that
// did not panic has left fn.
func TestForPanicOnEitherSide(t *testing.T) {
	caller := goid()
	for _, callerPanics := range []bool{true, false} {
		in := map[bool]chan struct{}{true: make(chan struct{}), false: make(chan struct{})}
		recovered, inside := forPanic(2, 2, func(int) bool {
			onCaller := goid() == caller
			close(in[onCaller])
			await(in[!onCaller])
			if onCaller == callerPanics {
				return true
			}
			time.Sleep(20 * time.Millisecond) // still inside when the panic is raised
			return false
		})
		pe, ok := recovered.(*PanicError)
		if !ok || inside != 0 {
			t.Fatalf("caller panics=%v: re-raised %T %v with %d calls of fn still running", callerPanics, recovered, recovered, inside)
		}
		if !strings.Contains(string(pe.Stack), "parallel.forPanic") {
			t.Fatalf("caller panics=%v: stack does not reach the panicking fn:\n%s", callerPanics, pe.Stack)
		}
	}
}

// TestForSerialPanicUnwrapped: with one worker For is a plain loop, and a
// panic leaves it as it was raised.
func TestForSerialPanicUnwrapped(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		recovered, _ := forPanic(3, workers, func(i int) bool { return i == 1 })
		if recovered != "boom 1" {
			t.Errorf("workers=%d: recovered %T %v, want the string fn panicked with", workers, recovered, recovered)
		}
	}
	if recovered, _ := forPanic(1, 8, func(int) bool { return true }); recovered != "boom 0" {
		t.Errorf("a single item: recovered %T %v, want the string fn panicked with", recovered, recovered)
	}
}

func TestNormalizeWorkers(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 1: 1, 5: 5, MaxWorkers + 1: MaxWorkers} {
		if got := NormalizeWorkers(in); got != want {
			t.Errorf("NormalizeWorkers(%d) = %d, want %d", in, got, want)
		}
	}
	if got := NormalizeWorkers(0); got < 1 || got > MaxWorkers {
		t.Errorf("NormalizeWorkers(0) = %d", got)
	}
}
