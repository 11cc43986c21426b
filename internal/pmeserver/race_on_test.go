//go:build race

package pmeserver

// raceEnabled reports a -race build, in which sync.Pool drops pooled
// items at random, so allocation counts are not meaningful.
const raceEnabled = true
