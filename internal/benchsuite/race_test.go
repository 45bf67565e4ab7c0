//go:build race

package benchsuite

// raceEnabled reports whether the race detector is on: it makes
// sync.Pool drop items at random, so pooled allocation counts are not
// comparable to a budget set without it.
const raceEnabled = true
