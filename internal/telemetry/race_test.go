//go:build race

package telemetry

// raceEnabled: the race detector changes allocation counts (its sync.Pool
// drops a share of Puts), so allocation pins skip themselves under it.
const raceEnabled = true
