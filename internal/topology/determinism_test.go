package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// adjacencySerialization renders the full adjacency structure in stored
// order — deliberately NOT sorted, so any construction-order nondeterminism
// (map iteration, unstable-sort ties) changes the string.
func adjacencySerialization(g *Graph) string {
	var b strings.Builder
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "%d:%v\n", v, g.Neighbors(v))
	}
	return b.String()
}

// TestRRGDeterministicFromSeed pins the determinism contract (DESIGN.md §6):
// two constructions from the same seed must produce byte-identical wiring.
func TestRRGDeterministicFromSeed(t *testing.T) {
	build := func() *Graph {
		g, err := RRG("rrg", regular(40, 7), rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if a, b := adjacencySerialization(build()), adjacencySerialization(build()); a != b {
		t.Fatalf("same-seed RRG constructions differ:\n%s\nvs\n%s", a, b)
	}
}

// TestDRingDeterministic pins DRing construction, which must be fully
// deterministic even without a seed (no randomness in the builder).
func TestDRingDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := DRing(Uniform(8, 4, 24))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if a, b := adjacencySerialization(build()), adjacencySerialization(build()); a != b {
		t.Fatal("DRing constructions differ")
	}
}
