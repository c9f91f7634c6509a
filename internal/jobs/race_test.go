//go:build race

package jobs

// raceEnabled: the race detector changes allocation counts (its sync.Pool
// drops a share of Puts, encoding/json's encoder pool among them), so
// allocation pins skip themselves under it.
const raceEnabled = true
