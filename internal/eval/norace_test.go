//go:build !race

package eval_test

const raceEnabled = false
