package bgp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"spineless/internal/topology"
)

// refEntry is one node's working route for one prefix in convergeReference.
type refEntry struct {
	len      int
	path     []int // router ids, nearest first
	nextHops []NodeID
}

// convergeReference is the slice-materialising dense sweep, kept as the
// engine's test oracle: every round recomputes every entry from a full copy
// of the previous state, building each candidate AS path as a fresh slice.
// Converge must match convergeReference(n, nil) and ConvergeDirty(prev, …)
// must match convergeReference(n, prev) bit for bit — RIB contents,
// nil-vs-empty slices AND round counts.
func convergeReference(n *Network, seed Rib) (Rib, int, error) {
	nr := n.Topo.N()
	inbound := map[NodeID][]int{}
	for si, s := range n.Sessions {
		inbound[s.From] = append(inbound[s.From], si)
	}
	state := map[NodeID][]refEntry{}
	for _, node := range n.Nodes() {
		es := make([]refEntry, nr)
		for d := range es {
			es[d].len = inf
		}
		if node.VRF == n.K {
			es[node.Router] = refEntry{len: 1, path: []int{node.Router}}
		}
		state[node] = es
	}
	if seed != nil {
		for _, node := range n.Nodes() {
			old, ok := seed[node]
			if !ok || len(old) != nr {
				continue
			}
			for d, r := range old {
				if node.VRF == n.K && d == node.Router {
					continue
				}
				if r.ASPathLen < 0 {
					continue
				}
				state[node][d] = refEntry{
					len:      r.ASPathLen,
					path:     append([]int(nil), r.ASPath...),
					nextHops: append([]NodeID(nil), r.NextHops...),
				}
			}
		}
	}
	lexLess := func(a, b []int) bool {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return len(a) < len(b)
	}
	equal := func(a, b refEntry) bool {
		if a.len != b.len || len(a.path) != len(b.path) || len(a.nextHops) != len(b.nextHops) {
			return false
		}
		for i := range a.path {
			if a.path[i] != b.path[i] {
				return false
			}
		}
		for i := range a.nextHops {
			if a.nextHops[i] != b.nextHops[i] {
				return false
			}
		}
		return true
	}
	maxRounds := 4*n.K*nr + 16
	for round := 1; round <= maxRounds; round++ {
		changed := false
		next := map[NodeID][]refEntry{}
		for _, node := range n.Nodes() {
			cur := state[node]
			es := make([]refEntry, nr)
			copy(es, cur)
			for d := 0; d < nr; d++ {
				if node.VRF == n.K && d == node.Router {
					continue
				}
				best := inf
				var bestPath []int
				var hops []NodeID
				for _, si := range inbound[node] {
					s := n.Sessions[si]
					adv := state[s.To][d]
					if adv.len >= inf {
						continue
					}
					cand := adv.len + 1 + s.Prepend
					if containsRouter(adv.path, node.Router) || s.To.Router == node.Router {
						continue
					}
					if cand < best {
						best = cand
						bestPath = prependPath(s.To.Router, 1+s.Prepend, adv.path)
						hops = []NodeID{s.To}
					} else if cand == best {
						p := prependPath(s.To.Router, 1+s.Prepend, adv.path)
						if lexLess(p, bestPath) {
							bestPath = p
						}
						hops = append(hops, s.To)
					}
				}
				sort.Slice(hops, func(a, b int) bool {
					if hops[a].Router != hops[b].Router {
						return hops[a].Router < hops[b].Router
					}
					return hops[a].VRF < hops[b].VRF
				})
				ne := refEntry{len: best, path: bestPath, nextHops: hops}
				if !equal(cur[d], ne) {
					changed = true
				}
				es[d] = ne
			}
			next[node] = es
		}
		state = next
		if !changed {
			rib := make(Rib, len(state))
			for node, es := range state {
				rs := make([]Route, nr)
				for d, e := range es {
					if e.len >= inf {
						rs[d] = Route{ASPathLen: -1}
						continue
					}
					rs[d] = Route{ASPathLen: e.len, ASPath: e.path, NextHops: append([]NodeID(nil), e.nextHops...)}
				}
				rib[node] = rs
			}
			return rib, round, nil
		}
	}
	return nil, maxRounds, nil
}

func containsRouter(path []int, r int) bool {
	for _, p := range path {
		if p == r {
			return true
		}
	}
	return false
}

func prependPath(router, times int, rest []int) []int {
	out := make([]int, 0, times+len(rest))
	for i := 0; i < times; i++ {
		out = append(out, router)
	}
	return append(out, rest...)
}

func convergeTestFabrics(t *testing.T) map[string]*topology.Graph {
	t.Helper()
	out := map[string]*topology.Graph{}
	dring, err := topology.DRing(topology.Uniform(5, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	out["dring"] = dring
	degs := make([]int, 12)
	for i := range degs {
		degs[i] = 4
	}
	rrg, err := topology.RRG("rrg12", degs, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	out["rrg"] = rrg
	return out
}

// TestConvergeMatchesDenseReference pins the per-destination engine against
// convergeReference on cold starts: same RIB, same round count.
func TestConvergeMatchesDenseReference(t *testing.T) {
	for name, g := range convergeTestFabrics(t) {
		for _, K := range []int{2, 3} {
			n, err := Build(g, K)
			if err != nil {
				t.Fatal(err)
			}
			rib, rounds, err := n.Converge()
			if err != nil {
				t.Fatal(err)
			}
			wantRib, wantRounds, err := convergeReference(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rounds != wantRounds {
				t.Fatalf("%s K=%d: Converge took %d rounds, reference %d", name, K, rounds, wantRounds)
			}
			if !reflect.DeepEqual(rib, wantRib) {
				t.Fatalf("%s K=%d: Converge RIB differs from the reference", name, K)
			}
		}
	}
}

// failOneLink clones g without its i-th distinct adjacency, returning the
// failed graph and the link's endpoints.
func failOneLink(t *testing.T, g *topology.Graph, u int) (*topology.Graph, int, int) {
	t.Helper()
	v := g.Neighbors(u)[0]
	failed := g.Clone()
	for failed.RemoveLink(u, v) {
		// drop every parallel copy so the session set actually changes
	}
	return failed, u, v
}

// allRouters dirties every router of n: ConvergeDirty's dense warm start.
func allRouters(n *Network) []int {
	all := make([]int, n.Topo.N())
	for r := range all {
		all[r] = r
	}
	return all
}

// TestConvergeDirtyAllMatchesDenseReference pins the dense warm start —
// every router dirty — after a link failure against the oracle.
func TestConvergeDirtyAllMatchesDenseReference(t *testing.T) {
	for name, g := range convergeTestFabrics(t) {
		n, err := Build(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := n.Converge()
		if err != nil {
			t.Fatal(err)
		}
		failed, _, _ := failOneLink(t, g, 0)
		fn, err := Build(failed, 2)
		if err != nil {
			t.Fatal(err)
		}
		rib, rounds, err := fn.ConvergeDirty(base, allRouters(fn))
		if err != nil {
			t.Fatal(err)
		}
		wantRib, wantRounds, err := convergeReference(fn, base)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != wantRounds {
			t.Fatalf("%s: dense ConvergeDirty took %d rounds, reference %d", name, rounds, wantRounds)
		}
		if !reflect.DeepEqual(rib, wantRib) {
			t.Fatalf("%s: dense ConvergeDirty RIB differs from the reference", name)
		}
	}
}

// TestConvergeDirtyMatchesDenseWarmStart is the incremental-reconvergence
// contract: seeding only the failure-incident routers must reproduce the
// full warm-start sweep (every router dirty) exactly — RIB and round count
// — for single and multi-link failures on every test fabric.
func TestConvergeDirtyMatchesDenseWarmStart(t *testing.T) {
	for name, g := range convergeTestFabrics(t) {
		for _, K := range []int{2, 3} {
			n, err := Build(g, K)
			if err != nil {
				t.Fatal(err)
			}
			base, _, err := n.Converge()
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range [][]int{{0}, {3}, {0, 3}} {
				failed := g.Clone()
				var dirty []int
				for _, u := range cut {
					v := g.Neighbors(u)[0]
					for failed.RemoveLink(u, v) {
					}
					dirty = append(dirty, u, v)
				}
				fn, err := Build(failed, K)
				if err != nil {
					t.Fatal(err)
				}
				wantRib, wantRounds, err := fn.ConvergeDirty(base, allRouters(fn))
				if err != nil {
					t.Fatal(err)
				}
				rib, rounds, err := fn.ConvergeDirty(base, dirty)
				if err != nil {
					t.Fatal(err)
				}
				if rounds != wantRounds {
					t.Fatalf("%s K=%d cut=%v: ConvergeDirty took %d rounds, the dense warm start %d",
						name, K, cut, rounds, wantRounds)
				}
				if !reflect.DeepEqual(rib, wantRib) {
					t.Fatalf("%s K=%d cut=%v: ConvergeDirty RIB differs from the dense warm start", name, K, cut)
				}
			}
		}
	}
}

// TestConvergeDirtyRejectsBadInput pins the guard rails: incomplete
// previous RIBs and out-of-range routers are errors, not silent staleness.
func TestConvergeDirtyRejectsBadInput(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.ConvergeDirty(Rib{}, []int{0}); err == nil {
		t.Fatal("incomplete previous RIB accepted")
	}
	if _, _, err := n.ConvergeDirty(base, []int{g.N()}); err == nil {
		t.Fatal("out-of-range dirty router accepted")
	}
	// An empty dirty set on an unchanged network is already converged.
	rib, rounds, err := n.ConvergeDirty(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Fatalf("no-op reconvergence took %d rounds, want 1", rounds)
	}
	if !reflect.DeepEqual(rib, base) {
		t.Fatal("no-op reconvergence changed the RIB")
	}
}

// fuzzFabric decodes a small fabric from three bytes: kind, shape and seed.
// Kinds cover the flat families (DRing, RRG, RNG, De Bruijn), a leaf-spine,
// a ring of parallel trunks and a disconnected fabric. It returns nil when
// the decoded shape is infeasible.
func fuzzFabric(kind, shape, seed byte) *topology.Graph {
	rng := rand.New(rand.NewSource(int64(seed)))
	var g *topology.Graph
	var err error
	switch kind % 7 {
	case 0:
		g, err = topology.DRing(topology.Uniform(5+int(shape%3), 1+int(shape/3%2), 12))
	case 1:
		degs := make([]int, 6+2*int(shape%4))
		for i := range degs {
			degs[i] = 3 + int(shape/4%2)
		}
		g, err = topology.RRG("rrg", degs, rng)
	case 2:
		g, err = topology.RNG(topology.RNGSpec{Switches: 6 + 2*int(shape%4), Degree: 2 + int(shape/4%3), Ports: 8}, rng)
	case 3:
		g, err = topology.DeBruijn(topology.DeBruijnSpec{Symbols: 2, Digits: 3, Ports: 8})
	case 4:
		g, err = topology.LeafSpine(topology.LeafSpineSpec{X: 2 + int(shape%3), Y: 1 + int(shape/3%3)})
	case 5:
		// A ring of trunks, each one to three parallel links.
		n := 3 + int(shape%4)
		g = topology.New("trunks", n, 16)
		for u := 0; u < n; u++ {
			for c := 0; c <= rng.Intn(3); c++ {
				err = g.AddLink(u, (u+1)%n)
			}
		}
	default:
		// Two rings and an isolated switch.
		n := 3 + int(shape%3)
		g = topology.New("split", 2*n+1, 8)
		for u := 0; u < n; u++ {
			_ = g.AddLink(u, (u+1)%n)
			err = g.AddLink(n+u, n+(u+1)%n)
		}
	}
	if err != nil {
		return nil
	}
	return g
}

// checkConvergeScript decodes a fabric, K and a sequence of link cuts and
// repairs from script, and after every step checks Converge and
// ConvergeDirty, with the step's routers and with every router dirty,
// against convergeReference (RIB deep-equal, round counts
// equal) and Theorem 1 on connected fabrics.
func checkConvergeScript(t *testing.T, script []byte) {
	if len(script) < 3 {
		return
	}
	g := fuzzFabric(script[0], script[1], script[2])
	if g == nil {
		return
	}
	K := 2 + int(script[1]>>5)%3
	type cut struct{ u, v, mult int }
	var cuts []cut
	var prev Rib
	ops := script[3:]
	for step := 0; step <= len(ops)/2 && step <= 6; step++ {
		var dirty []int
		if step > 0 {
			op, arg := ops[2*step-2], int(ops[2*step-1])
			if op%2 == 1 && len(cuts) > 0 {
				// Repair a cut trunk with every parallel copy.
				i := arg % len(cuts)
				c := cuts[i]
				cuts = append(cuts[:i], cuts[i+1:]...)
				for m := 0; m < c.mult; m++ {
					if err := g.AddLink(c.u, c.v); err != nil {
						t.Fatal(err)
					}
				}
				dirty = []int{c.u, c.v}
			} else {
				// Cut a trunk: every parallel copy of one adjacency.
				var links [][2]int
				for u := 0; u < g.N(); u++ {
					for _, v := range g.Neighbors(u) {
						if u < v {
							links = append(links, [2]int{u, v})
						}
					}
				}
				if len(links) == 0 {
					continue
				}
				l := links[arg%len(links)]
				c := cut{u: l[0], v: l[1]}
				for g.RemoveLink(c.u, c.v) {
					c.mult++
				}
				cuts = append(cuts, c)
				dirty = []int{c.u, c.v}
			}
		}
		n, err := Build(g, K)
		if err != nil {
			t.Fatal(err)
		}
		rib, rounds, err := n.Converge()
		if err != nil {
			t.Fatal(err)
		}
		want, wantRounds, err := convergeReference(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != wantRounds || !reflect.DeepEqual(rib, want) {
			t.Fatalf("%s K=%d step %d: Converge (%d rounds) differs from the reference (%d rounds)",
				g.Name, K, step, rounds, wantRounds)
		}
		if g.Connected() {
			if err := VerifyTheorem1(n, rib); err != nil {
				t.Fatalf("%s K=%d step %d: %v", g.Name, K, step, err)
			}
		}
		if prev != nil {
			want, wantRounds, err := convergeReference(n, prev)
			if err != nil {
				t.Fatal(err)
			}
			dense, denseRounds, err := n.ConvergeDirty(prev, allRouters(n))
			if err != nil {
				t.Fatal(err)
			}
			if denseRounds != wantRounds || !reflect.DeepEqual(dense, want) {
				t.Fatalf("%s K=%d step %d: dense ConvergeDirty (%d rounds) differs from the reference (%d rounds)",
					g.Name, K, step, denseRounds, wantRounds)
			}
			d, dRounds, err := n.ConvergeDirty(prev, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if dRounds != wantRounds || !reflect.DeepEqual(d, want) {
				t.Fatalf("%s K=%d step %d: ConvergeDirty(%v) (%d rounds) differs from the reference (%d rounds)",
					g.Name, K, step, dirty, dRounds, wantRounds)
			}
		}
		prev = rib
	}
}

// TestConvergeMatchesReferenceRandom runs checkConvergeScript on random
// scripts from a clock seed, logged so a failure can be replayed.
func TestConvergeMatchesReferenceRandom(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		script := make([]byte, 3+rng.Intn(14))
		rng.Read(script)
		checkConvergeScript(t, script)
	}
}

// FuzzConverge is TestConvergeMatchesReferenceRandom's property on
// fuzzer-chosen scripts; testdata/fuzz/FuzzConverge holds its seed corpus,
// which plain go test replays.
func FuzzConverge(f *testing.F) {
	f.Fuzz(checkConvergeScript)
}

// TestConvergeAllocs pins the paper-scale cold convergence's allocation
// count: per-destination state lives in pooled scratch and the RIB is cut
// from three backing arrays, so allocations no longer scale with
// nodes × destinations.
func TestConvergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	g, err := topology.DRing(topology.BalancedDRing(topology.PaperLeafSpine.Switches(), 12, topology.PaperLeafSpine.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := n.Converge(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Errorf("Converge on the paper DRing (%d routers, K=2) allocates %.0f objects, want at most 500", g.N(), allocs)
	}
}
