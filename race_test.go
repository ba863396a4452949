//go:build race

package repro

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops items at random, so allocation counts of code that
// formats strings (fmt keeps its printers in a pool) are not reproducible.
const raceEnabled = true
