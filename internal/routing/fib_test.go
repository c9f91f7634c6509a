package routing

import (
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"spineless/internal/topology"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(7)) }

// regular returns the degree sequence of a d-regular graph on n switches.
func regular(n, d int) []int {
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = d
	}
	return degrees
}

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
		if err := checkPath(p, 0, 1); err != nil {
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
		if err := checkPath(p1, 0, 9); err != nil {
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
	rrg, err := topology.RRG("rrg", regular(16, 4), testRNG())
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
				if err := checkPath(p, src, dst); err != nil {
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
		if err := checkPath(p, src, dst); err != nil {
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
		g, err := topology.RRG("q", regular(12, 3), rng)
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

// TestNextHopRouters: ECMP between two leaves forwards through every spine
// and through nothing else.
func TestNextHopRouters(t *testing.T) {
	g := smallLeafSpine(t)
	var nh []int
	for _, p := range NewECMP(g).PathSet(0, 1, 0) {
		if !slices.Contains(nh, p[1]) {
			nh = append(nh, p[1])
		}
	}
	if len(nh) != 2 {
		t.Fatalf("next hops = %v, want both spines", nh)
	}
	for _, r := range nh {
		if r < 8 {
			t.Fatalf("next hop %d is not a spine", r)
		}
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
// sizes its result before walking — one allocation under ECMP,
// Shortest-Union and the weighted walk alike, and an unreachable destination
// is still nil.
func TestFibPathAllocatesOnce(t *testing.T) {
	g, _ := smallDRing(t)
	su2, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Scheme{NewECMP(g), su2, NewWeighted(su2)} {
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
	for _, f := range []Scheme{NewECMP(island), NewWeighted(NewECMP(island))} {
		if p := f.Path(0, 2, 1); p != nil {
			t.Fatalf("%s: path to an unreachable switch = %v, want nil", f.Name(), p)
		}
	}
}

// TestFibBuildAllocs pins FIB construction at O(destinations) allocations:
// the paper-scale Shortest-Union(2) build took 74,199 when every (destination,
// vnode) owned a next-hop slice and every heap push boxed its item.
func TestFibBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	g, err := topology.DRing(topology.BalancedDRing(topology.PaperLeafSpine.Switches(), 12, topology.PaperLeafSpine.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewShortestUnion(g, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("NewShortestUnion(DRing, 2) allocates %.0f objects on %d switches, want at most 1000", allocs, g.N())
	}
}

// referenceFib is the FIB construction the CSR/bucket-queue build replaced,
// kept as its oracle: append-built adjacency lists, a container/heap
// Dijkstra, one next-hop slice per vnode and a stable comparison sort for the
// path-count order.
type referenceFib struct {
	ctg    [][]int32
	next   [][][]int32
	npaths [][]int64
}

type refItem struct{ node, dist int32 }

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func buildReference(f *Fib) referenceFib {
	v := f.layers * f.n
	fwd, rev := make([][]varc, v), make([][]varc, v)
	f.eachArc(func(x, y, cost int) {
		fwd[x] = append(fwd[x], varc{to: int32(y), cost: int8(cost)})
		rev[y] = append(rev[y], varc{to: int32(x), cost: int8(cost)})
	})
	ref := referenceFib{make([][]int32, f.n), make([][][]int32, f.n), make([][]int64, f.n)}
	for dst := 0; dst < f.n; dst++ {
		ref.ctg[dst], ref.next[dst], ref.npaths[dst] = buildDstReference(f, fwd, rev, dst)
	}
	return ref
}

func buildDstReference(f *Fib, fwd, rev [][]varc, dst int) ([]int32, [][]int32, []int64) {
	v := f.layers * f.n
	ctg := make([]int32, v)
	for i := range ctg {
		ctg[i] = unreachable
	}
	target := f.vnode(f.deliveryLayer(), dst)
	ctg[target] = 0
	pq := &refHeap{{node: int32(target), dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refItem)
		if it.dist > ctg[it.node] {
			continue
		}
		for _, a := range rev[it.node] {
			nd := it.dist + int32(a.cost)
			if nd < ctg[a.to] {
				ctg[a.to] = nd
				heap.Push(pq, refItem{node: a.to, dist: nd})
			}
		}
	}
	next := make([][]int32, v)
	for u := 0; u < v; u++ {
		if ctg[u] >= unreachable || u == target {
			continue
		}
		for _, a := range fwd[u] {
			if ctg[u] == int32(a.cost)+ctg[a.to] {
				next[u] = append(next[u], a.to)
			}
		}
	}

	counts := make([]int64, v)
	counts[target] = 1
	order := make([]int32, 0, v)
	for u := 0; u < v; u++ {
		if ctg[u] < unreachable {
			order = append(order, int32(u))
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if ctg[order[a]] != ctg[order[b]] {
			return ctg[order[a]] < ctg[order[b]]
		}
		return order[a] < order[b]
	})
	const saturate = int64(1) << 40
	for _, u := range order {
		if u == int32(target) {
			continue
		}
		var c int64
		for _, nh := range next[u] {
			c += counts[nh]
			if c >= saturate {
				c = saturate
				break
			}
		}
		counts[u] = c
	}
	return ctg, next, counts
}

// path is Path's hashed forwarding walk over the reference next-hop lists.
func (r referenceFib) path(f *Fib, src, dst int, flowID uint64) []int {
	target, state := f.vnode(f.deliveryLayer(), dst), f.vnode(f.deliveryLayer(), src)
	if src == dst {
		return []int{src}
	}
	if r.ctg[dst][state] >= unreachable {
		return nil
	}
	path := []int{src}
	for hop := 0; state != target; hop++ {
		nh := r.next[dst][state]
		state = int(nh[hashChoice(flowID, hop, f.router(state), len(nh))])
		path = append(path, f.router(state))
	}
	return path
}

// pathSet is PathSet's depth-first enumeration over the reference lists.
func (r referenceFib) pathSet(f *Fib, src, dst int) [][]int {
	target, start := f.vnode(f.deliveryLayer(), dst), f.vnode(f.deliveryLayer(), src)
	var out [][]int
	seen := map[string]bool{}
	onPath := map[int]bool{src: true}
	cur := []int{src}
	var dfs func(state int)
	dfs = func(state int) {
		if state == target {
			if k := physPathKey(cur); !seen[k] {
				seen[k] = true
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		for _, nh := range r.next[dst][state] {
			if rt := f.router(int(nh)); !onPath[rt] {
				onPath[rt] = true
				cur = append(cur, rt)
				dfs(int(nh))
				cur = cur[:len(cur)-1]
				delete(onPath, rt)
			}
		}
	}
	dfs(start)
	return out
}

// TestFibMatchesReference holds the CSR/bucket-queue build to the
// construction it replaced, on seeds drawn fresh each run: over the five
// bake-off fabric builders, a graph with a parallel trunk and a disconnected
// graph, for ECMP and K ∈ {2, 3, 4}, every column must carry the reference's
// cost-to-go, every vnode's next-hop sequence (order and multiplicity, which
// hashed choice depends on) and path counts, and Path and PathSet must agree
// for every ordered rack pair.
func TestFibMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	must := func(g *topology.Graph, err error) *topology.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	trunked := topology.New("trunked", 5, 8)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {2, 3}, {2, 3}, {3, 4}, {4, 0}} {
		if err := trunked.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	islands := topology.New("islands", 7, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}} {
		if err := islands.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	fabrics := []*topology.Graph{
		must(topology.DRing(topology.Uniform(5+rng.Intn(3), 2+rng.Intn(2), 24))),
		must(topology.RRG("rrg", regular(14+2*rng.Intn(4), 3+rng.Intn(3)), rng)),
		must(topology.Xpander(12+rng.Intn(8), 3+rng.Intn(2), rng)),
		must(topology.DeBruijn(topology.DeBruijnSpec{Symbols: 2 + rng.Intn(2), Digits: 3, Ports: 12})),
		must(topology.RNG(topology.RNGSpec{Switches: 12 + 2*rng.Intn(5), Degree: 3 + rng.Intn(3), Ports: 12}, rng)),
		trunked,
		islands,
	}
	for _, g := range fabrics {
		for _, k := range []int{0, 2, 3, 4} {
			f := NewECMP(g)
			if k > 0 {
				var err error
				if f, err = NewShortestUnion(g, k); err != nil {
					t.Fatal(err)
				}
			}
			ref := buildReference(f)
			for dst := range f.cols {
				col := &f.cols[dst]
				if !reflect.DeepEqual(col.ctg, ref.ctg[dst]) {
					t.Fatalf("%s K=%d: ctg toward %d differs from the reference", g.Name, k, dst)
				}
				if !reflect.DeepEqual(col.npaths, ref.npaths[dst]) {
					t.Fatalf("%s K=%d: path counts toward %d differ from the reference", g.Name, k, dst)
				}
				for u := range ref.next[dst] {
					if got, want := col.hops(u), ref.next[dst][u]; !slices.Equal(got, want) {
						t.Fatalf("%s K=%d: next hops of vnode %d toward %d = %v, reference %v", g.Name, k, u, dst, got, want)
					}
				}
			}
			for src := 0; src < f.n; src++ {
				for dst := 0; dst < f.n; dst++ {
					for flow := uint64(0); flow < 8; flow++ {
						id := flow*0x9e3779b97f4a7c15 + uint64(seed)
						if got, want := f.Path(src, dst, id), ref.path(f, src, dst, id); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s K=%d: Path(%d,%d,%d) = %v, reference %v", g.Name, k, src, dst, id, got, want)
						}
					}
					if src == dst {
						continue
					}
					if got, want := f.PathSet(src, dst, 0), ref.pathSet(f, src, dst); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s K=%d: PathSet(%d,%d) = %v, reference %v", g.Name, k, src, dst, got, want)
					}
				}
			}
		}
	}
}
