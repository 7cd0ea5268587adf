//go:build race

package exhaust_test

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
