//go:build race

package precis_test

// raceEnabled reports that the race detector, which inflates the heap
// severalfold, is compiled in; the layout pins skip themselves under it.
const raceEnabled = true
