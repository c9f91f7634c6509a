// Package fixture exercises the determinism checker: wall-clock reads,
// package-global rand, and environment and host lookups are findings;
// explicitly seeded construction and method calls on a *rand.Rand are not.
package fixture

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

func Bad() (int, int64, string) {
	t := time.Now().UnixNano()         // finding: wall clock
	d := time.Since(time.Unix(0, t))   // finding: wall clock (Since)
	n := rand.Intn(10)                 // finding: package-global source
	rand.Shuffle(n, func(i, j int) {}) // finding: package-global source
	env := os.Getenv("SEED")           // finding: environment-dependent
	return n, int64(d), env
}

func Good(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // ok: explicitly seeded
	return rng.Intn(10)                   // ok: method on *rand.Rand
}

func Host() (string, int) {
	h, _ := os.Hostname()      // finding: host-dependent
	return h, runtime.NumCPU() // finding: host-dependent
}
