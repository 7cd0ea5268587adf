//go:build race

package eval_test

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
