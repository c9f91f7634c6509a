package ospf

import (
	"slices"
	"testing"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

func dringFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ecmpNextHops returns the distinct second switches of fib's paths from r
// to dst: the next hops fib forwards r's packets to.
func ecmpNextHops(fib *routing.Fib, r, dst int) []int {
	var out []int
	for _, p := range fib.PathSet(r, dst, 0) {
		if !slices.Contains(out, p[1]) {
			out = append(out, p[1])
		}
	}
	return out
}

func TestFloodConverges(t *testing.T) {
	g := dringFabric(t)
	d := New(g)
	rounds := d.Flood()
	if !d.Converged() {
		t.Fatal("flooding did not converge")
	}
	// Synchronous DB sync needs about diameter+1 rounds.
	st, err := topology.RackPathStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > st.Diameter+3 {
		t.Fatalf("flooding took %d rounds for diameter %d", rounds, st.Diameter)
	}
}

// TestSPFMatchesECMP: every router's locally computed next hops must equal
// the fabric-wide ECMP FIB — the §2 "OSPF with ECMP" baseline realizes
// exactly routing.NewECMP.
func TestSPFMatchesECMP(t *testing.T) {
	g := dringFabric(t)
	d := New(g)
	d.Flood()
	fib := routing.NewECMP(g)
	for r := 0; r < g.N(); r++ {
		for dst := 0; dst < g.N(); dst++ {
			if r == dst {
				continue
			}
			got := d.NextHops(r, dst)
			want := ecmpNextHops(fib, r, dst)
			wantSet := map[int]bool{}
			for _, w := range want {
				wantSet[w] = true
			}
			if len(got) != len(wantSet) {
				t.Fatalf("router %d → %d: ospf %v, ecmp %v", r, dst, got, want)
			}
			for _, h := range got {
				if !wantSet[h] {
					t.Fatalf("router %d → %d: ospf hop %d not in ecmp set %v", r, dst, h, want)
				}
			}
		}
	}
}

func TestFailLinkReconvergence(t *testing.T) {
	g := dringFabric(t)
	d := New(g)
	d.Flood()
	// Fail one link and reconverge.
	a := 0
	b := d.Routers[0].LSA.Neighbors[0]
	if err := d.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	rounds := d.Flood()
	if !d.Converged() {
		t.Fatal("post-failure flooding did not converge")
	}
	if rounds < 2 {
		t.Fatalf("failure propagated in %d rounds (too fast to be real)", rounds)
	}
	// No router may still use the failed adjacency.
	for r := 0; r < len(d.Routers); r++ {
		for dst := 0; dst < len(d.Routers); dst++ {
			if r == dst {
				continue
			}
			for _, h := range d.NextHops(r, dst) {
				if (r == a && h == b) || (r == b && h == a) {
					t.Fatalf("router %d still routes via failed link to %d", r, h)
				}
			}
		}
	}
	// And the next hops must match ECMP on the degraded fabric.
	failed := d.g
	fib := routing.NewECMP(failed)
	for dst := 1; dst < failed.N(); dst++ {
		got := d.NextHops(0, dst)
		want := ecmpNextHops(fib, 0, dst)
		if len(got) != len(want) {
			t.Fatalf("post-failure router 0 → %d: ospf %v vs ecmp %v", dst, got, want)
		}
	}
	if err := d.FailLink(a, b); err == nil {
		t.Fatal("double failure accepted")
	}
}

// TestFailLinkLeavesCallerFabric: the domain fails links on its own copy of
// the fabric, and an out-of-range router is an error, not a panic.
func TestFailLinkLeavesCallerFabric(t *testing.T) {
	g := dringFabric(t)
	links, row := g.Links(), slices.Clone(g.Neighbors(0))
	d := New(g)
	if err := d.FailLink(0, row[0]); err != nil {
		t.Fatal(err)
	}
	if g.Links() != links || !slices.Equal(g.Neighbors(0), row) {
		t.Fatalf("FailLink changed the caller's fabric: %d links (was %d), row 0 %v (was %v)",
			g.Links(), links, g.Neighbors(0), row)
	}
	if d.g.Links() != links-1 {
		t.Fatalf("the domain's fabric has %d links, want %d", d.g.Links(), links-1)
	}
	for _, l := range [][2]int{{-1, 0}, {0, -1}, {g.N(), 0}, {0, g.N()}} {
		if err := d.FailLink(l[0], l[1]); err == nil {
			t.Fatalf("FailLink(%d, %d) accepted", l[0], l[1])
		}
	}
}

func TestNextHopsUnknownDst(t *testing.T) {
	g := dringFabric(t)
	d := New(g)
	// Before flooding, routers only know themselves.
	if nh := d.NextHops(0, 5); nh != nil {
		t.Fatalf("pre-flood next hops = %v", nh)
	}
}
