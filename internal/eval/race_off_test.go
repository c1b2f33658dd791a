//go:build !race

package eval

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// share of what it is given, so allocation counts do not hold.
const raceEnabled = false
