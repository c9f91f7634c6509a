//go:build !race

package flowsim

const raceEnabled = false
