//go:build !race

package plugvolt_test

const raceEnabled = false
