//go:build !race

package benchsuite

const raceEnabled = false
