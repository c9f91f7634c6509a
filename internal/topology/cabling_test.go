package topology

import (
	"math"
	"testing"
)

func TestRowPlacement(t *testing.T) {
	g := New("g", 4, 8)
	p := RowPlacement(g)
	for i, pos := range p.Pos {
		if pos != i {
			t.Fatalf("RowPlacement = %v", p.Pos)
		}
	}
}

func TestLeafSpinePlacementSpinesCentered(t *testing.T) {
	spec := LeafSpineSpec{X: 6, Y: 2}
	p := LeafSpinePlacement(spec)
	if len(p.Pos) != spec.Switches() {
		t.Fatalf("placement size = %d", len(p.Pos))
	}
	// All positions distinct and cover 0..n-1.
	seen := make([]bool, spec.Switches())
	for _, pos := range p.Pos {
		if pos < 0 || pos >= len(seen) || seen[pos] {
			t.Fatalf("bad placement %v", p.Pos)
		}
		seen[pos] = true
	}
	// Spines sit strictly inside the row.
	for s := spec.Leaves(); s < spec.Switches(); s++ {
		if p.Pos[s] == 0 || p.Pos[s] == spec.Switches()-1 {
			t.Fatalf("spine %d placed at row end (%d)", s, p.Pos[s])
		}
	}
}

func TestCablingSimple(t *testing.T) {
	// 3 racks in a row: links 0-1 (len 1), 0-2 (len 2), plus a parallel 0-1.
	g := New("g", 3, 8)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 0, 2)
	rep, err := Cabling(g, RowPlacement(g))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Links != 3 || rep.TotalLength != 4 || rep.MaxLength != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Bundles != 2 || rep.MaxBundle != 2 {
		t.Fatalf("bundles = %+v", rep)
	}
	if math.Abs(rep.MeanLength-4.0/3) > 1e-12 {
		t.Fatalf("mean = %v", rep.MeanLength)
	}
}

func TestCablingPlacementMismatch(t *testing.T) {
	g := New("g", 3, 8)
	if _, err := Cabling(g, Placement{Pos: []int{0}}); err == nil {
		t.Fatal("bad placement accepted")
	}
}

// TestCablingDRingShorterThanRRG pins the §1 deployment argument the DRing
// is designed around: with ToRs laid out in ring order, DRing cables only
// span nearby racks, while an equipment-matched RRG needs row-length runs.
func TestCablingDRingShorterThanRRG(t *testing.T) {
	spec := Uniform(10, 3, 30)
	dr, err := DRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	degrees := make([]int, dr.N())
	for v := range degrees {
		degrees[v] = dr.NetworkDegree(v)
	}
	rrg, err := RRG("rrg", degrees, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	drRep, err := Cabling(dr, RowPlacement(dr))
	if err != nil {
		t.Fatal(err)
	}
	rrgRep, err := Cabling(rrg, RowPlacement(rrg))
	if err != nil {
		t.Fatal(err)
	}
	// The row layout wraps the ring's seam across the full row, so even the
	// DRing has a few long runs — but mean length and long-haul count must
	// be clearly smaller than random wiring.
	if drRep.MeanLength >= rrgRep.MeanLength {
		t.Fatalf("DRing mean cable %.2f not shorter than RRG %.2f", drRep.MeanLength, rrgRep.MeanLength)
	}
	if drRep.LongHaul >= rrgRep.LongHaul {
		t.Fatalf("DRing long-haul %d not fewer than RRG %d", drRep.LongHaul, rrgRep.LongHaul)
	}
	// Trunking at supernode granularity: the DRing needs few fat trunks
	// (one per adjacent supernode pair); random wiring scatters.
	drTrunks, drMax, err := GroupedBundles(dr, RowPlacement(dr), spec.Sizes[0])
	if err != nil {
		t.Fatal(err)
	}
	rrgTrunks, rrgMax, err := GroupedBundles(rrg, RowPlacement(rrg), spec.Sizes[0])
	if err != nil {
		t.Fatal(err)
	}
	if drTrunks >= rrgTrunks {
		t.Fatalf("DRing trunks %d not fewer than RRG %d", drTrunks, rrgTrunks)
	}
	if drMax <= rrgMax {
		t.Fatalf("DRing max trunk %d not fatter than RRG %d", drMax, rrgMax)
	}
	// DRing trunk count is exactly 2 per supernode (offsets +1, +2).
	if drTrunks != 2*spec.Supernodes() {
		t.Fatalf("DRing trunks = %d, want %d", drTrunks, 2*spec.Supernodes())
	}
}

func TestGroupedBundlesValidation(t *testing.T) {
	g := New("g", 2, 4)
	if _, _, err := GroupedBundles(g, Placement{Pos: []int{0}}, 1); err == nil {
		t.Fatal("bad placement accepted")
	}
	if _, _, err := GroupedBundles(g, RowPlacement(g), 0); err == nil {
		t.Fatal("zero group size accepted")
	}
}

func TestLifecycleRoles(t *testing.T) {
	ls, err := LeafSpine(LeafSpineSpec{X: 6, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := Lifecycle(ls); r.SwitchRoles != 2 {
		t.Fatalf("leaf-spine roles = %d, want 2", r.SwitchRoles)
	}
	dr, err := DRing(Uniform(8, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r := Lifecycle(dr); r.SwitchRoles != 1 {
		t.Fatalf("uniform DRing roles = %+v, want a single role", r)
	}
}

func TestLifecycleDRingExpansionUnit(t *testing.T) {
	rep, err := LifecycleDRing(Uniform(8, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExpansionUnit <= 0 || rep.ExpansionUnit > 8 {
		t.Fatalf("expansion unit = %d, want seam-local (<= 4 supernodes × 2 ToRs)", rep.ExpansionUnit)
	}
	if _, err := LifecycleDRing(Uniform(3, 2, 20)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
