package routing

import (
	"math/rand"
	"reflect"
	"testing"

	"spineless/internal/topology"
)

// rebaseEqual asserts the delta-built FIB matches a from-scratch build on
// the new fabric, column by column — the Rebase bit-identity contract.
func rebaseEqual(t *testing.T, name string, got, want *Fib) {
	t.Helper()
	for d := range want.cols {
		g, w := got.cols[d], want.cols[d]
		if !reflect.DeepEqual(g.ctg, w.ctg) {
			t.Fatalf("%s: Rebase ctg toward %d differs from fresh build", name, d)
		}
		if !reflect.DeepEqual(g.off, w.off) || !reflect.DeepEqual(g.nh, w.nh) {
			t.Fatalf("%s: Rebase next-hop sets toward %d differ from fresh build", name, d)
		}
		if !reflect.DeepEqual(g.npaths, w.npaths) {
			t.Fatalf("%s: Rebase path counts toward %d differ from fresh build", name, d)
		}
	}
	if !reflect.DeepEqual(got.fwd, want.fwd) || !reflect.DeepEqual(got.rev, want.rev) {
		t.Fatalf("%s: Rebase virtual adjacency differs from fresh build", name)
	}
}

// TestRebaseMatchesFreshBuild cuts single links, double links, and one
// parallel-trunk copy across DRing and RRG fabrics, for ECMP and
// Shortest-Union, and requires the rebased FIB to be bit-identical to a
// fresh build — while actually sharing the unaffected columns.
func TestRebaseMatchesFreshBuild(t *testing.T) {
	fabrics := map[string]*topology.Graph{}
	dring, err := topology.DRing(topology.Uniform(6, 3, 20))
	if err != nil {
		t.Fatal(err)
	}
	fabrics["dring"] = dring
	rrg, err := topology.RRG("rrg", regular(16, 4), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	fabrics["rrg"] = rrg

	build := func(g *topology.Graph, k int) *Fib {
		if k == 0 {
			return NewECMP(g)
		}
		f, err := NewShortestUnion(g, k)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	for name, g := range fabrics {
		for _, k := range []int{0, 2, 3} {
			base := build(g, k)
			for _, cuts := range [][]int{{0}, {0, 5}} {
				failed := g.Clone()
				for _, u := range cuts {
					if !failed.RemoveLink(u, g.Neighbors(u)[0]) {
						t.Fatalf("link at %d not present", u)
					}
				}
				got, err := base.Rebase(failed)
				if err != nil {
					t.Fatal(err)
				}
				rebaseEqual(t, name, got, build(failed, k))
				shared := 0
				for d := 0; d < g.N(); d++ {
					if &got.cols[d].ctg[0] == &base.cols[d].ctg[0] {
						shared++
					}
				}
				// K=3 on a 16-switch fabric admits tight arcs almost
				// everywhere, so only the low-K cases guarantee sharing.
				if name == "rrg" && len(cuts) == 1 && k < 3 && shared == 0 {
					t.Fatalf("%s K=%d: single-link Rebase shared no columns — the delta test never passes", name, k)
				}
			}
		}
	}
}

// TestRebaseParallelTrunk pins the multiset diff: dropping one copy of a
// parallel trunk keeps the adjacency but changes next-hop multiplicity, so
// Rebase must rebuild the destinations the trunk serves.
func TestRebaseParallelTrunk(t *testing.T) {
	g := topology.New("trunked", 4, 8)
	for v := 0; v < 4; v++ {
		g.SetServers(v, 1)
	}
	for _, e := range [][2]int{{0, 1}, {0, 1} /* parallel copy */, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	base := NewECMP(g)

	thinned := g.Clone()
	if !thinned.RemoveLink(0, 1) {
		t.Fatal("trunk copy not present")
	}
	got, err := base.Rebase(thinned)
	if err != nil {
		t.Fatal(err)
	}
	rebaseEqual(t, "trunk", got, NewECMP(thinned))
	if before, after := len(base.cols[1].hops(base.vnode(0, 0))), len(got.cols[1].hops(got.vnode(0, 0))); before != 2 || after != 1 {
		t.Fatalf("trunk multiplicity not reflected in next-hop sets: %d → %d", before, after)
	}
}

// TestRebaseRestoresLinks covers the addition direction: rebasing the
// failed FIB back onto the healthy fabric must reproduce the healthy build.
func TestRebaseRestoresLinks(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(5, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	failed := g.Clone()
	if !failed.RemoveLink(0, g.Neighbors(0)[0]) {
		t.Fatal("link not present")
	}
	fsu, err := NewShortestUnion(failed, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fsu.Rebase(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rebaseEqual(t, "restore", got, want)
}

// TestRebaseRejectsDifferentSwitchSet pins the guard rail.
func TestRebaseRejectsDifferentSwitchSet(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(5, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	other, err := topology.DRing(topology.Uniform(6, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewECMP(g).Rebase(other); err == nil {
		t.Fatal("switch-count mismatch accepted")
	}
}
