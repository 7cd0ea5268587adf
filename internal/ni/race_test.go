//go:build race

package ni_test

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
