package routing

import (
	"testing"

	"spineless/internal/topology"
)

// TestECMPDistanceEqualsPhysical pins Fib.Distance semantics for ECMP.
func TestECMPDistanceEqualsPhysical(t *testing.T) {
	g, _ := smallDRing(t)
	f := NewECMP(g)
	dist := topology.AllPairsDistances(g)
	for a := 0; a < g.N(); a++ {
		for b := 0; b < g.N(); b++ {
			if f.Distance(a, b) != dist[a][b] {
				t.Fatalf("Distance(%d,%d) = %d, want %d", a, b, f.Distance(a, b), dist[a][b])
			}
		}
	}
}

// TestHashSpreadsFlows checks per-hop hashing spreads flows across the
// equal-cost set rather than collapsing onto one path.
func TestHashSpreadsFlows(t *testing.T) {
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := NewECMP(g)
	counts := map[int]int{}
	const flows = 4000
	for id := uint64(0); id < flows; id++ {
		p := f.Path(0, 1, id)
		counts[p[1]]++ // the spine chosen
	}
	if len(counts) != 8 {
		t.Fatalf("flows used %d of 8 spines", len(counts))
	}
	for spine, c := range counts {
		frac := float64(c) / flows
		if frac < 0.125/2 || frac > 0.125*2 {
			t.Fatalf("spine %d got %.3f of flows, want ≈0.125", spine, frac)
		}
	}
}

// TestSU2EqualsECMPForDistantPairs: Shortest-Union(2) and ECMP admit the
// same path sets whenever the racks are ≥ 3 apart (no ≤2-hop paths exist
// beyond the shortest ones... and shortest > 2 means the union adds
// nothing).
func TestSU2EqualsECMPForDistantPairs(t *testing.T) {
	// A long thin DRing has pairs at distance ≥ 3.
	g, err := topology.DRing(topology.Uniform(14, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ecmp := NewECMP(g)
	su2, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist := topology.AllPairsDistances(g)
	checked := 0
	for a := 0; a < g.N(); a++ {
		for b := 0; b < g.N(); b++ {
			if dist[a][b] < 3 {
				continue
			}
			pe := ecmp.PathSet(a, b, 0)
			ps := su2.PathSet(a, b, 0)
			if len(pe) != len(ps) {
				t.Fatalf("pair (%d,%d) at distance %d: ecmp %d paths, su2 %d",
					a, b, dist[a][b], len(pe), len(ps))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no distant pairs in the test fabric")
	}
}

// TestKSPContainsAllShortest: the k-shortest set must start with every
// shortest path when k is large enough.
func TestKSPContainsAllShortest(t *testing.T) {
	g, _ := smallDRing(t)
	ecmp := NewECMP(g)
	for _, pair := range [][2]int{{0, 7}, {2, 11}, {5, 16}} {
		shortest := ecmp.PathSet(pair[0], pair[1], 0)
		k := len(shortest) + 4
		ksp := YenKSP(g, pair[0], pair[1], k)
		if len(ksp) < len(shortest) {
			t.Fatalf("pair %v: ksp found %d < %d shortest", pair, len(ksp), len(shortest))
		}
		for i := 0; i < len(shortest); i++ {
			if PathLen(ksp[i]) != PathLen(shortest[0]) {
				t.Fatalf("pair %v: ksp[%d] has length %d, want shortest %d",
					pair, i, PathLen(ksp[i]), PathLen(shortest[0]))
			}
		}
	}
}
