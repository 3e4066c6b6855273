//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts at random, so allocation counts are not a property of the code.
const raceEnabled = true
