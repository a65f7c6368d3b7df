//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts say nothing about the pooled path.
const raceEnabled = true
