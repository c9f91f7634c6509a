package routing

import (
	"testing"

	"spineless/internal/topology"
)

func TestWeightedPathValid(t *testing.T) {
	g, _ := smallDRing(t)
	fib, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWeighted(fib)
	if w.Name() != "wcmp(shortest-union(2))" {
		t.Fatalf("name = %q", w.Name())
	}
	for flow := uint64(0); flow < 300; flow++ {
		src, dst := int(flow)%g.N(), int(flow*5+2)%g.N()
		if src == dst {
			if p := w.Path(src, dst, flow); len(p) != 1 {
				t.Fatal("self path broken")
			}
			continue
		}
		p := w.Path(src, dst, flow)
		if err := checkPath(p, src, dst); err != nil {
			t.Fatalf("flow %d: %v", flow, err)
		}
		if PathLen(p) > fib.Distance(src, dst) {
			t.Fatalf("flow %d: weighted path %v exceeds max(L,K)", flow, p)
		}
	}
}

// TestWeightedBalancesUnevenPaths: on a fabric where one next hop leads to
// many more admissible paths than another, weighting shifts flows toward
// it in proportion.
func TestWeightedBalancesUnevenPaths(t *testing.T) {
	// src 0 connects to hub 1 (which fans out to 4 middle nodes reaching
	// dst) and to lone 6 (single path to dst). Uniform ECMP sends half the
	// flows via 6; weighted sends ~4/5 via the hub.
	g := topology.New("uneven", 8, 10)
	mustLink(t, g, 0, 1) // hub
	mustLink(t, g, 0, 6) // lone
	for m := 2; m <= 5; m++ {
		mustLink(t, g, 1, m)
		mustLink(t, g, m, 7)
	}
	mustLink(t, g, 6, 7)
	// dst = 7: paths 0-1-m-7 (4 of them, length 3) and 0-6-7 (length 2).
	// Shortest is length 2 via 6; use SU(3) so all five are admissible.
	fib, err := NewShortestUnion(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	uni := 0
	wgt := 0
	w := NewWeighted(fib)
	const flows = 4000
	for id := uint64(0); id < flows; id++ {
		if fib.Path(0, 7, id)[1] == 1 {
			uni++
		}
		if w.Path(0, 7, id)[1] == 1 {
			wgt++
		}
	}
	uniFrac := float64(uni) / flows
	wgtFrac := float64(wgt) / flows
	if uniFrac < 0.4 || uniFrac > 0.6 {
		t.Fatalf("uniform hub fraction = %v, want ≈0.5", uniFrac)
	}
	if wgtFrac < 0.7 || wgtFrac > 0.9 {
		t.Fatalf("weighted hub fraction = %v, want ≈0.8", wgtFrac)
	}
}

func mustLink(t *testing.T, g *topology.Graph, a, b int) {
	t.Helper()
	if err := g.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
}
