//go:build race

package serve

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// share of what it is given, so allocation counts do not hold.
const raceEnabled = true
