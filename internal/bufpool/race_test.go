//go:build race

package bufpool

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of what is Put, so zero-allocation assertions cannot hold.
const raceEnabled = true
