package netsim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

// pairLinksReference is the switch-pair index New built before links were
// numbered by topology port: a dense ns×ns prefix-sum table whose pair
// (u, v) lists its parallel link ids in (u, neighbour-order) order. It is
// kept as the oracle for the row-scan lookups.
func pairLinksReference(g *topology.Graph) func(u, v int) []int32 {
	ns := g.N()
	start := make([]int32, ns*ns+1)
	for u := 0; u < ns; u++ {
		for _, v := range g.Neighbors(u) {
			start[u*ns+v+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	links := make([]int32, start[len(start)-1])
	fill := make([]int32, ns*ns)
	var next int32
	for u := 0; u < ns; u++ {
		for _, v := range g.Neighbors(u) {
			k := u*ns + v
			links[start[k]+fill[k]] = next
			next++
			fill[k]++
		}
	}
	return func(u, v int) []int32 {
		k := u*ns + v
		return links[start[k]:start[k+1]]
	}
}

// expandReference is expandPath over the reference pair index.
func expandReference(s *Simulator, pair func(u, v int) []int32, srcHost, dstHost int, swPath []int, flowID uint64) []int32 {
	out := []int32{s.hostUp[srcHost]}
	for h := 0; h+1 < len(swPath); h++ {
		copies := pair(swPath[h], swPath[h+1])
		out = append(out, copies[(flowID>>uint(h%32))%uint64(len(copies))])
	}
	return append(out, s.hostDown[dstHost])
}

// indexFabrics is every builder's output at a small scale, plus a graph with
// parallel trunks and a graph whose rows RemoveLink's swap-remove permuted.
func indexFabrics(t *testing.T) []*topology.Graph {
	t.Helper()
	spec := topology.LeafSpineSpec{X: 12, Y: 4}
	ls, err := topology.LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	rrg, err := topology.Flatten(ls, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dring, err := topology.DRing(topology.BalancedDRing(spec.Switches(), 13, spec.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	dbSpec, err := topology.FitDeBruijn(spec.Switches(), spec.Radix(), 6)
	if err != nil {
		t.Fatal(err)
	}
	debruijn, err := topology.DeBruijn(dbSpec)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := topology.RNG(topology.RNGSpec{Switches: spec.Switches(), Degree: 6, Ports: spec.Radix()}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	trunked := rrg.Clone()
	trunked.Name, trunked.Ports = "trunked", 0
	reordered := rrg.Clone()
	reordered.Name = "reordered"
	k := 0
	for u := 0; u < rrg.N(); u++ {
		for _, v := range rrg.Neighbors(u) {
			if u < v && k%3 == 0 {
				if err := trunked.AddLink(u, v); err != nil {
					t.Fatal(err)
				}
			}
			if u < v && k%7 == 0 {
				reordered.RemoveLink(u, v)
				if err := reordered.AddLink(u, v); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	moved := 0
	for u := 0; u < rrg.N(); u++ {
		if !slices.Equal(reordered.Neighbors(u), rrg.Neighbors(u)) {
			moved++
		}
	}
	if moved < rrg.N()/2 {
		t.Fatalf("swap-remove permuted %d of %d rows; the graph is barely reordered", moved, rrg.N())
	}
	return []*topology.Graph{ls, rrg, dring, debruijn, rng, trunked, reordered}
}

// TestPortNumberingMatchesPairTable: every (u, v, copy) names the link id
// the ns×ns pair table gave it, and expandPath turns random flows into the
// same link sequences — so flow hashing, and every run, is unchanged.
func TestPortNumberingMatchesPairTable(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	for _, g := range indexFabrics(t) {
		t.Run(g.Name, func(t *testing.T) {
			sim, err := New(g, routing.NewECMP(g), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pair := pairLinksReference(g)
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					want := pair(u, v)
					if m := g.LinkMultiplicity(u, v); m != len(want) {
						t.Fatalf("%d→%d: multiplicity %d, pair table has %d copies", u, v, m, len(want))
					}
					for c, id := range want {
						if got := sim.portOff[u] + int32(g.Port(u, v, c)); got != id {
							t.Fatalf("%d→%d copy %d: link %d, pair table says %d", u, v, c, got, id)
						}
					}
				}
			}
			su2, err := routing.NewShortestUnion(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []routing.Scheme{routing.NewECMP(g), su2} {
				for i := 0; i < 500; i++ {
					src, dst := r.Intn(g.Servers()), r.Intn(g.Servers())
					id := r.Uint64()
					path := scheme.Path(g.RackOf(src), g.RackOf(dst), id)
					ref := sim.expandPath(src, dst, path, id)
					got := sim.paths[ref.off : ref.off+ref.n]
					if want := expandReference(sim, pair, src, dst, path, id); !slices.Equal(got, want) {
						t.Fatalf("%s flow %d→%d id %#x path %v: links %v, pair table gives %v",
							scheme.Name(), src, dst, id, path, got, want)
					}
				}
			}
		})
	}
}

// TestNewBytesAtRRGScale pins New's memory to O(links + hosts): on a
// 2,000-switch 12-regular RRG with 4 servers per switch the ns×ns pair table
// alone cost 32 MB (36.3 MB in all).
func TestNewBytesAtRRGScale(t *testing.T) {
	g, err := topology.RRG("rrg", topology.SpreadEvenly(2000*12, 2000), rand.New(rand.NewSource(1))) // 12-regular
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		g.SetServers(v, 4)
	}
	scheme := routing.NewECMP(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := New(g, scheme, DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 6 << 20
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("netsim.New: %.1f MB for %d links", mb, sim.NumLinks())
	if after.TotalAlloc-before.TotalAlloc > limit {
		t.Fatalf("netsim.New allocated %.1f MB on a 2,000-switch RRG, want ≤ %d MB", mb, limit>>20)
	}
}
