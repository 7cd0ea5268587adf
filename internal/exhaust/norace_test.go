//go:build !race

package exhaust_test

const raceEnabled = false
