//go:build !race

package spineless_test

const raceEnabled = false
