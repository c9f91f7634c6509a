package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spineless/internal/topology"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(7)) }

func smallDRing(t *testing.T) (*topology.Graph, topology.DRingSpec) {
	t.Helper()
	spec := topology.Uniform(6, 3, 20)
	g, err := topology.DRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g, spec
}

func smallLeafSpine(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 6, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestECMPLeafSpinePaths(t *testing.T) {
	g := smallLeafSpine(t)
	f := NewECMP(g)
	// Between two leaves: all paths are leaf→spine→leaf; exactly y=2 paths.
	paths := f.PathSet(0, 1, 0)
	if len(paths) != 2 {
		t.Fatalf("ECMP paths(0,1) = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if err := CheckPath(p, 0, 1); err != nil {
			t.Fatal(err)
		}
		if PathLen(p) != 2 {
			t.Fatalf("path %v has length %d, want 2", p, PathLen(p))
		}
		if p[1] < 8 { // spines are ids 8..9
			t.Fatalf("path %v does not transit a spine", p)
		}
	}
}

func TestECMPPathDeterministic(t *testing.T) {
	g, _ := smallDRing(t)
	f := NewECMP(g)
	for flow := uint64(0); flow < 50; flow++ {
		p1 := f.Path(0, 9, flow)
		p2 := f.Path(0, 9, flow)
		if len(p1) != len(p2) {
			t.Fatalf("nondeterministic path for flow %d", flow)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("nondeterministic path for flow %d: %v vs %v", flow, p1, p2)
			}
		}
		if err := CheckPath(p1, 0, 9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestECMPPathIsShortest(t *testing.T) {
	g, _ := smallDRing(t)
	f := NewECMP(g)
	dist := topology.AllPairsDistances(g)
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			p := f.Path(src, dst, 12345)
			if PathLen(p) != dist[src][dst] {
				t.Fatalf("ECMP path %d→%d has %d hops, shortest is %d",
					src, dst, PathLen(p), dist[src][dst])
			}
		}
	}
}

func TestECMPSelfPath(t *testing.T) {
	g, _ := smallDRing(t)
	f := NewECMP(g)
	p := f.Path(3, 3, 9)
	if len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path = %v", p)
	}
	ps := f.PathSet(3, 3, 0)
	if len(ps) != 1 || len(ps[0]) != 1 {
		t.Fatalf("self path set = %v", ps)
	}
}

func TestShortestUnionRejectsBadK(t *testing.T) {
	g, _ := smallDRing(t)
	if _, err := NewShortestUnion(g, 1); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := NewShortestUnion(g, 1000); err == nil {
		t.Fatal("absurd K accepted")
	}
}

// TestTheorem1 pins §4 Theorem 1: the VRF-graph distance between delivery
// nodes equals max(L, K) for every router pair and K ∈ {2, 3, 4}.
func TestTheorem1(t *testing.T) {
	topos := map[string]*topology.Graph{}
	g, _ := smallDRing(t)
	topos["dring"] = g
	topos["leafspine"] = smallLeafSpine(t)
	rrg, err := topology.RegularRRG("rrg", 16, 4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	topos["rrg"] = rrg

	for name, g := range topos {
		dist := topology.AllPairsDistances(g)
		for _, K := range []int{2, 3, 4} {
			f, err := NewShortestUnion(g, K)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < g.N(); src++ {
				for dst := 0; dst < g.N(); dst++ {
					if src == dst {
						continue
					}
					want := max(dist[src][dst], K)
					if got := f.Distance(src, dst); got != want {
						t.Fatalf("%s K=%d: VRF distance %d→%d = %d, want max(%d,%d)=%d",
							name, K, src, dst, got, dist[src][dst], K, want)
					}
				}
			}
		}
	}
}

// TestShortestUnionPathSet pins the path-set semantics: all simple paths of
// length ≤ K plus all shortest paths, and nothing else.
func TestShortestUnionPathSet(t *testing.T) {
	g, _ := smallDRing(t)
	K := 2
	f, err := NewShortestUnion(g, K)
	if err != nil {
		t.Fatal(err)
	}
	dist := topology.AllPairsDistances(g)
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			if src == dst {
				continue
			}
			got := f.PathSet(src, dst, 0)
			want := enumerateSU(g, src, dst, K, dist[src][dst])
			if len(got) != len(want) {
				t.Fatalf("SU(2) path count %d→%d = %d, want %d", src, dst, len(got), len(want))
			}
			wantSet := map[string]bool{}
			for _, p := range want {
				wantSet[pathKey(p)] = true
			}
			for _, p := range got {
				if err := CheckPath(p, src, dst); err != nil {
					t.Fatal(err)
				}
				if !wantSet[pathKey(p)] {
					t.Fatalf("SU(2) admitted unexpected path %v for %d→%d", p, src, dst)
				}
			}
		}
	}
}

// enumerateSU brute-forces the Shortest-Union(K) path set: every simple
// path with length ≤ K or length == shortest distance.
func enumerateSU(g *topology.Graph, src, dst, K, shortest int) [][]int {
	limit := max(K, shortest)
	var out [][]int
	onPath := map[int]bool{src: true}
	cur := []int{src}
	var dfs func(v int)
	dfs = func(v int) {
		if len(cur)-1 > limit {
			return
		}
		if v == dst {
			l := len(cur) - 1
			if l <= K || l == shortest {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		seen := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if onPath[w] || seen[w] {
				continue
			}
			seen[w] = true
			onPath[w] = true
			cur = append(cur, w)
			dfs(w)
			cur = cur[:len(cur)-1]
			delete(onPath, w)
		}
	}
	dfs(src)
	return out
}

func pathKey(p []int) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

// TestAdjacentRacksGainPaths pins the §4 motivation: directly-connected
// racks have exactly one shortest path, and SU(2) opens up length-2 paths.
func TestAdjacentRacksGainPaths(t *testing.T) {
	g, spec := smallDRing(t)
	ecmp := NewECMP(g)
	su2, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ToR 0 (supernode 0) and ToR 3 (supernode 1) are adjacent.
	if !g.HasLink(0, 3) {
		t.Fatal("expected direct link 0-3")
	}
	if n := len(ecmp.PathSet(0, 3, 0)); n != 1 {
		t.Fatalf("ECMP paths between adjacent racks = %d, want 1", n)
	}
	su := su2.PathSet(0, 3, 0)
	if len(su) <= 1 {
		t.Fatalf("SU(2) paths between adjacent racks = %d, want > 1", len(su))
	}
	// §4: SU(2) provides at least n+1 link-disjoint paths (n = supernode
	// width) between any two racks.
	n := spec.Sizes[0]
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			if src == dst {
				continue
			}
			dis := GreedyDisjoint(su2.PathSet(src, dst, 0))
			if len(dis) < n+1 {
				t.Fatalf("SU(2) disjoint paths %d→%d = %d, want >= %d", src, dst, len(dis), n+1)
			}
		}
	}
}

func TestShortestUnionPathValid(t *testing.T) {
	g, _ := smallDRing(t)
	f, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for flow := uint64(0); flow < 200; flow++ {
		src, dst := int(flow)%g.N(), int(flow*7+3)%g.N()
		if src == dst {
			continue
		}
		p := f.Path(src, dst, flow)
		if err := CheckPath(p, src, dst); err != nil {
			t.Fatalf("flow %d: %v", flow, err)
		}
		if PathLen(p) > 2 && PathLen(p) > f.Distance(src, dst) {
			t.Fatalf("flow %d path %v longer than max(L,K)", flow, p)
		}
	}
}

func TestShortestUnionQuickTheorem1(t *testing.T) {
	// Property over random regular graphs: VRF distance == max(L, K).
	f := func(seed int64, kRaw uint8) bool {
		K := 2 + int(kRaw%3)
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.RegularRRG("q", 12, 3, rng)
		if err != nil || !g.Connected() {
			return true // skip rare disconnected instances
		}
		fib, err := NewShortestUnion(g, K)
		if err != nil {
			return false
		}
		dist := topology.AllPairsDistances(g)
		for s := 0; s < g.N(); s++ {
			for d := 0; d < g.N(); d++ {
				if s == d {
					continue
				}
				if fib.Distance(s, d) != max(dist[s][d], K) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopRouters(t *testing.T) {
	g := smallLeafSpine(t)
	f := NewECMP(g)
	nh := f.NextHopRouters(0, 1)
	if len(nh) != 2 {
		t.Fatalf("next hops = %v, want both spines", nh)
	}
	for _, r := range nh {
		if r < 8 {
			t.Fatalf("next hop %d is not a spine", r)
		}
	}
	if f.NextHopRouters(0, 0) != nil {
		t.Fatal("self next hops should be nil")
	}
}

func TestPathSetCap(t *testing.T) {
	g, _ := smallDRing(t)
	f, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	capped := f.PathSet(0, 9, 2)
	if len(capped) != 2 {
		t.Fatalf("capped path set size = %d, want 2", len(capped))
	}
}

// TestFibPathAllocatesOnce: the cost-to-go bounds the hop count, so Path
// sizes its result before walking — one allocation under ECMP and
// Shortest-Union alike, and an unreachable destination is still nil.
func TestFibPathAllocatesOnce(t *testing.T) {
	g, _ := smallDRing(t)
	su2, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fib{NewECMP(g), su2} {
		flow := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			src, dst := int(flow)%g.N(), int(flow*7+3)%g.N()
			if src == dst {
				dst = (dst + 1) % g.N()
			}
			if p := f.Path(src, dst, flow); p[len(p)-1] != dst {
				t.Fatalf("path %v does not reach %d", p, dst)
			}
			flow++
		})
		if allocs != 1 {
			t.Errorf("%s: Path allocates %.1f objects per call, want 1", f.Name(), allocs)
		}
	}

	island := topology.New("island", 3, 4)
	if err := island.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if p := NewECMP(island).Path(0, 2, 1); p != nil {
		t.Fatalf("path to an unreachable switch = %v, want nil", p)
	}
}
