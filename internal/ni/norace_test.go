//go:build !race

package ni_test

const raceEnabled = false
