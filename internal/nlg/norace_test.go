//go:build !race

package nlg

const raceEnabled = false
