package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLeafSpineStructure(t *testing.T) {
	spec := LeafSpineSpec{X: 4, Y: 2}
	g, err := LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != spec.Switches() {
		t.Fatalf("switches = %d, want %d", g.N(), spec.Switches())
	}
	if g.Servers() != spec.TotalServers() {
		t.Fatalf("servers = %d, want %d", g.Servers(), spec.TotalServers())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("leaf-spine disconnected")
	}
	// Every leaf connects to every spine exactly once; no leaf-leaf or
	// spine-spine links.
	for l := 0; l < spec.Leaves(); l++ {
		if g.ServerCount(l) != spec.X {
			t.Fatalf("leaf %d has %d servers, want %d", l, g.ServerCount(l), spec.X)
		}
		for sp := spec.Leaves(); sp < g.N(); sp++ {
			if m := g.LinkMultiplicity(l, sp); m != 1 {
				t.Fatalf("leaf %d - spine %d multiplicity %d", l, sp, m)
			}
		}
		for l2 := 0; l2 < spec.Leaves(); l2++ {
			if l != l2 && g.HasLink(l, l2) {
				t.Fatalf("leaf-leaf link %d-%d", l, l2)
			}
		}
	}
	for sp := spec.Leaves(); sp < g.N(); sp++ {
		if g.ServerCount(sp) != 0 {
			t.Fatalf("spine %d hosts servers", sp)
		}
		if g.NetworkDegree(sp) != spec.Leaves() {
			t.Fatalf("spine %d degree %d, want %d", sp, g.NetworkDegree(sp), spec.Leaves())
		}
	}
}

func TestLeafSpinePaperConfig(t *testing.T) {
	g, err := LeafSpine(PaperLeafSpine)
	if err != nil {
		t.Fatal(err)
	}
	// §5.1: 64 racks, 3072 servers, 3:1 oversubscription, 80 switches.
	if got := len(g.Racks()); got != 64 {
		t.Errorf("racks = %d, want 64", got)
	}
	if g.Servers() != 3072 {
		t.Errorf("servers = %d, want 3072", g.Servers())
	}
	if g.N() != 80 {
		t.Errorf("switches = %d, want 80", g.N())
	}
	if x, y := PaperLeafSpine.X, PaperLeafSpine.Y; x != 3*y {
		t.Errorf("oversubscription = %d:%d, want 3:1", x, y)
	}
}

func TestLeafSpineRejectsBadSpec(t *testing.T) {
	for _, spec := range []LeafSpineSpec{{0, 1}, {1, 0}, {-2, 3}} {
		if _, err := LeafSpine(spec); !errors.Is(err, ErrInfeasible) {
			t.Errorf("LeafSpine(%v) err = %v, want ErrInfeasible", spec, err)
		}
	}
}

func TestRRGRegular(t *testing.T) {
	g, err := RRG("rrg", regular(20, 5), testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.NetworkDegree(v) != 5 {
			t.Fatalf("switch %d degree %d, want 5", v, g.NetworkDegree(v))
		}
		// Simple graph: no parallel links.
		for _, w := range g.Neighbors(v) {
			if g.LinkMultiplicity(v, w) != 1 {
				t.Fatalf("parallel link %d-%d", v, w)
			}
		}
	}
	if !g.Connected() {
		t.Fatal("RRG(20,5) disconnected (astronomically unlikely)")
	}
}

func TestRRGDegreeSequence(t *testing.T) {
	deg := []int{3, 3, 2, 2, 2, 2, 1, 1} // even sum = 16
	g, err := RRG("rrg", deg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range deg {
		if g.NetworkDegree(v) != d {
			t.Fatalf("switch %d degree %d, want %d", v, g.NetworkDegree(v), d)
		}
	}
}

func TestRRGRejectsOddSum(t *testing.T) {
	if _, err := RRG("bad", []int{1, 1, 1}, testRNG()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("odd degree sum: err = %v, want ErrInfeasible", err)
	}
	if _, err := RRG("bad", []int{-1, 1}, testRNG()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("negative degree: err = %v, want ErrInfeasible", err)
	}
}

func TestRRGQuickSimpleAndExactDegrees(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 6 + int(nRaw%40)
		d := 2 + int(dRaw)%((n-1)/2-1) // sparse: at most (n-1)/2
		if n*d%2 != 0 {
			n++ // make the sum even
		}
		rng := testRNG()
		rng.Seed(seed)
		g, err := RRG("q", regular(n, d), rng)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if g.NetworkDegree(v) != d {
				return false
			}
			seen := map[int]bool{}
			for _, w := range g.Neighbors(v) {
				if w == v || seen[w] {
					return false
				}
				seen[w] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenPreservesEquipment(t *testing.T) {
	spec := LeafSpineSpec{X: 6, Y: 2}
	base, err := LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(base, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if flat.N() != base.N() {
		t.Fatalf("switch count changed: %d -> %d", base.N(), flat.N())
	}
	if flat.Servers() != base.Servers() {
		t.Fatalf("server count changed: %d -> %d", base.Servers(), flat.Servers())
	}
	if flat.Ports != base.Ports {
		t.Fatalf("radix changed: %d -> %d", base.Ports, flat.Ports)
	}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
	if !flat.Connected() {
		t.Fatal("flat rewiring disconnected")
	}
	// Flat: every switch hosts servers, spread within ±1.
	lo, hi := math.MaxInt, 0
	for v := 0; v < flat.N(); v++ {
		s := flat.ServerCount(v)
		if s == 0 {
			t.Fatalf("flat switch %d hosts no servers", v)
		}
		lo = min(lo, s)
		hi = max(hi, s)
	}
	if hi-lo > 1 {
		t.Fatalf("uneven server spread: min %d max %d", lo, hi)
	}
}

func TestFlattenNSRDoubles(t *testing.T) {
	// §3.1: NSR(F(T)) = 2 · NSR(T) for leaf-spine equipment, so UDF = 2.
	base, err := LeafSpine(PaperLeafSpine)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(base, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	udf, err := UDF(base, flat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(udf-2) > 0.05 {
		t.Fatalf("empirical UDF = %.4f, want ≈2", udf)
	}
	nsrBase, nsrFlat, analytic := UDFLeafSpineAnalytic(PaperLeafSpine)
	if math.Abs(analytic-2) > 1e-12 {
		t.Fatalf("analytic UDF = %v, want exactly 2", analytic)
	}
	if math.Abs(nsrBase-16.0/48.0) > 1e-12 || math.Abs(nsrFlat-32.0/48.0) > 1e-12 {
		t.Fatalf("analytic NSRs = %v, %v; want 1/3, 2/3", nsrBase, nsrFlat)
	}
}

func TestUDFIndependentOfYQuick(t *testing.T) {
	// §3.1: UDF(leaf-spine(x,y)) = 2 for all positive x, y.
	f := func(xr, yr uint8) bool {
		x, y := 1+int(xr%60), 1+int(yr%60)
		_, _, udf := UDFLeafSpineAnalytic(LeafSpineSpec{X: x, Y: y})
		return math.Abs(udf-2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDRingStructure(t *testing.T) {
	spec := Uniform(6, 3, 20) // network degree 4*3=12, 8 servers per ToR
	g, err := DRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 18 {
		t.Fatalf("switches = %d, want 18", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.NetworkDegree(v) != 12 {
			t.Fatalf("ToR %d network degree %d, want 12", v, g.NetworkDegree(v))
		}
		if g.ServerCount(v) != 8 {
			t.Fatalf("ToR %d servers %d, want 8", v, g.ServerCount(v))
		}
	}
	// Links exist exactly between ToRs in supernodes at ring distance 1 or 2.
	m := spec.Supernodes()
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			sa, sb := supernodeOf(spec, a), supernodeOf(spec, b)
			d := ringDist(sa, sb, m)
			want := d == 1 || d == 2
			if got := g.HasLink(a, b); got != want {
				t.Fatalf("link %d-%d (supernodes %d,%d, ringdist %d): got %v want %v",
					a, b, sa, sb, d, got, want)
			}
			if g.LinkMultiplicity(a, b) > 1 {
				t.Fatalf("parallel link %d-%d", a, b)
			}
		}
	}
	if !g.Connected() {
		t.Fatal("DRing disconnected")
	}
}

// supernodeOf returns the supernode index of ToR v under spec.
func supernodeOf(spec DRingSpec, v int) int {
	for i, n := range spec.Sizes {
		if v < n {
			return i
		}
		v -= n
	}
	return -1
}

func ringDist(a, b, m int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m-d < d {
		d = m - d
	}
	return d
}

func TestDRingRejectsSmallRing(t *testing.T) {
	if _, err := DRing(Uniform(4, 2, 20)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("m=4: err = %v, want ErrInfeasible", err)
	}
	if _, err := DRing(Uniform(6, 5, 20)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("no server ports: err = %v, want ErrInfeasible", err)
	}
	if _, err := DRing(DRingSpec{Sizes: []int{2, 2, 0, 2, 2}, Ports: 20}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero-size supernode: err = %v, want ErrInfeasible", err)
	}
}

// TestPaperDRingMatchesSection51 checks the §5.1 DRing that
// core.PaperFabrics builds: 12 balanced supernodes over the 80 radix-64
// switches of leaf-spine(48,16).
func TestPaperDRingMatchesSection51(t *testing.T) {
	g, err := DRing(BalancedDRing(PaperLeafSpine.Switches(), 12, PaperLeafSpine.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	// §5.1: 80 racks and ~2988 servers ("about 2.8% fewer" than 3072).
	if g.N() != 80 {
		t.Fatalf("racks = %d, want 80", g.N())
	}
	if s := g.Servers(); s < 2940 || s > 3040 {
		t.Fatalf("servers = %d, want ≈2988", s)
	}
	deficit := 1 - float64(g.Servers())/3072
	if deficit < 0 || deficit > 0.05 {
		t.Fatalf("server deficit vs leaf-spine = %.3f, want ≈0.028", deficit)
	}
}

// TestFig6DRingGeometry checks the §6.3 scale-sweep DRing that
// core.DefaultScaleConfig builds: supernodes of 6 ToRs on 60-port switches.
func TestFig6DRingGeometry(t *testing.T) {
	g, err := DRing(Uniform(10, 6, 60))
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: 6 switches per supernode, 60 ports, 36 server links per ToR.
	if g.N() != 60 {
		t.Fatalf("racks = %d, want 60", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.ServerCount(v) != 36 {
			t.Fatalf("ToR %d servers = %d, want 36", v, g.ServerCount(v))
		}
		if g.NetworkDegree(v) != 24 {
			t.Fatalf("ToR %d network degree = %d, want 24", v, g.NetworkDegree(v))
		}
	}
}

func TestBalancedDRingSizes(t *testing.T) {
	spec := BalancedDRing(80, 12, 64)
	if spec.Switches() != 80 {
		t.Fatalf("switches = %d, want 80", spec.Switches())
	}
	lo, hi := math.MaxInt, 0
	for _, s := range spec.Sizes {
		lo, hi = min(lo, s), max(hi, s)
	}
	if hi-lo > 1 {
		t.Fatalf("sizes differ by more than 1: %v", spec.Sizes)
	}
}

func TestXpanderRegular(t *testing.T) {
	g, err := Xpander(20, 4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 20 {
		t.Fatalf("switches = %d, want >= 20", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.NetworkDegree(v) != 4 {
			t.Fatalf("switch %d degree %d, want 4", v, g.NetworkDegree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("xpander disconnected")
	}
	if err := AttachServersEvenly(g, g.N()*3, 8); err != nil {
		t.Fatal(err)
	}
	if g.Servers() != g.N()*3 {
		t.Fatalf("servers = %d, want %d", g.Servers(), g.N()*3)
	}
}

func TestAttachServersEvenlyOverflow(t *testing.T) {
	g, err := Xpander(10, 4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachServersEvenly(g, g.N()*10, 6); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSpreadEvenly(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{7, 3, []int{3, 2, 2}},
		{6, 3, []int{2, 2, 2}},
		{0, 2, []int{0, 0}},
		{5, 1, []int{5}},
	}
	for _, c := range cases {
		got := SpreadEvenly(c.total, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("SpreadEvenly(%d,%d) = %v", c.total, c.n, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SpreadEvenly(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
			}
		}
	}
}

func TestSpreadEvenlyQuick(t *testing.T) {
	f := func(totalRaw, nRaw uint16) bool {
		total, n := int(totalRaw%5000), 1+int(nRaw%100)
		out := SpreadEvenly(total, n)
		sum, lo, hi := 0, math.MaxInt, 0
		for _, v := range out {
			sum += v
			lo, hi = min(lo, v), max(hi, v)
		}
		return sum == total && hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
