//go:build race

package spineless_test

// raceEnabled: the race detector changes allocation counts (its sync.Pool
// drops a share of Puts), so allocation pins skip themselves under it.
const raceEnabled = true
