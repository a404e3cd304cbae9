//go:build race

package ops

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
