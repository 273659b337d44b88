//go:build !race

package precis_test

const raceEnabled = false
