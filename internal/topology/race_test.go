//go:build race

package topology

// raceEnabled: the race detector changes allocation counts, so allocation
// pins skip themselves under it.
const raceEnabled = true
