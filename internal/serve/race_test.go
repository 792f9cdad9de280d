//go:build race

package serve

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random share of what is put back, so allocation counts grow
// and vary from run to run.
const raceEnabled = true
