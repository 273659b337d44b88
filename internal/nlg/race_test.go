//go:build race

package nlg

// raceEnabled reports that the race detector is compiled in. It makes
// sync.Pool drop buffers at random, so the allocation pins skip themselves.
const raceEnabled = true
