//go:build race

package server

// raceEnabled reports a -race build. Its sync.Pool drops pooled items at
// random, so allocation counts there are not the program's own.
const raceEnabled = true
