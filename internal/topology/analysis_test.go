package topology

import (
	"math"
	"testing"
)

func TestNSRLeafSpine(t *testing.T) {
	g, err := LeafSpine(LeafSpineSpec{X: 6, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NSR(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 6.0
	if math.Abs(st.Mean-want) > 1e-12 || st.Min != st.Max {
		t.Fatalf("NSR = %+v, want uniform %v", st, want)
	}
	if st.Racks != 8 {
		t.Fatalf("racks = %d, want 8", st.Racks)
	}
}

func TestNSRErrorsWithoutServers(t *testing.T) {
	g := New("bare", 3, 4)
	if _, err := NSR(g); err == nil {
		t.Fatal("NSR of serverless fabric succeeded")
	}
}

func TestBFSDistances(t *testing.T) {
	// Path graph 0-1-2-3 plus isolated 4.
	g := New("path", 5, 4)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 1, 2)
	mustLink(t, g, 2, 3)
	d := BFS(g, 0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS dist = %v, want %v", d, want)
		}
	}
}

func TestRackPathStatsLeafSpine(t *testing.T) {
	g, err := LeafSpine(LeafSpineSpec{X: 4, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RackPathStats(g)
	if err != nil {
		t.Fatal(err)
	}
	// Any two leaves are exactly 2 hops apart (via a spine).
	if st.Diameter != 2 || st.Mean != 2 {
		t.Fatalf("leaf-spine rack paths: %+v, want all = 2", st)
	}
	if math.Abs(st.Hist[2]-1) > 1e-12 {
		t.Fatalf("hist = %v, want all mass at 2", st.Hist)
	}
}

func TestRackPathStatsDRingShorterThanRing(t *testing.T) {
	// DRing's +2 chords halve distances relative to a plain ring.
	spec := Uniform(8, 2, 40)
	g, err := DRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RackPathStats(g)
	if err != nil {
		t.Fatal(err)
	}
	// Max supernode ring distance is 4; with +2 chords that is 2 ToR hops.
	if st.Diameter != 2 {
		t.Fatalf("diameter = %d, want 2", st.Diameter)
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g, err := DRing(Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	d := AllPairsDistances(g)
	for a := range d {
		for b := range d {
			if d[a][b] != d[b][a] {
				t.Fatalf("distance asymmetry %d-%d: %d vs %d", a, b, d[a][b], d[b][a])
			}
		}
	}
	if d[0][0] != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestBisectionEstimateCycle(t *testing.T) {
	// A cycle's balanced bisection is exactly 2 links.
	g := New("cycle", 10, 4)
	for i := 0; i < 10; i++ {
		mustLink(t, g, i, (i+1)%10)
	}
	if got := BisectionEstimate(g, 20, testRNG()); got != 2 {
		t.Fatalf("bisection(C10) = %d, want 2", got)
	}
}

func TestBisectionDRingIndependentOfRingLength(t *testing.T) {
	// §3.2/§6.3: DRing's bisection is O(n²) in supernode width, flat in ring
	// length m. Growing m must not grow the cut.
	small, err := DRing(Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	big, err := DRing(Uniform(12, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	bs := BisectionEstimate(small, 12, testRNG())
	bb := BisectionEstimate(big, 12, testRNG())
	if bb > bs {
		t.Fatalf("bisection grew with ring length: m=6 → %d, m=12 → %d", bs, bb)
	}
	// An RRG with the same per-switch degree keeps Θ(N) bisection, so at
	// m=12 the expander should beat the DRing's ring cut.
	rrg, err := RRG("rrg", regular(big.N(), 8), testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if br := BisectionEstimate(rrg, 12, testRNG()); br <= bb {
		t.Fatalf("RRG bisection %d not larger than DRing's %d at m=12", br, bb)
	}
}

func TestBisectionTrivial(t *testing.T) {
	if got := BisectionEstimate(New("one", 1, 0), 4, testRNG()); got != 0 {
		t.Fatalf("bisection of single switch = %d, want 0", got)
	}
}
