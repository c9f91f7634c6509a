package routing

import "testing"

func TestAdaptiveDelegation(t *testing.T) {
	g, _ := smallDRing(t)
	ecmp := NewECMP(g)
	su2, err := NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Route pairs involving rack 0 via SU(2), everything else via ECMP.
	ad := NewAdaptive("adaptive-test", ecmp, su2, func(src, dst int) bool {
		return src == 0 || dst == 0
	})
	if ad.Name() != "adaptive-test" {
		t.Fatalf("name = %q", ad.Name())
	}
	// ToR 0 and 3 are adjacent: SU(2) gives multiple paths, ECMP one.
	if n := len(ad.PathSet(0, 3, 0)); n < 2 {
		t.Fatalf("hot pair paths = %d, want SU(2) diversity", n)
	}
	// 3 and 6 are adjacent but cold: must behave like ECMP (one path).
	if !g.HasLink(3, 6) {
		t.Fatal("expected adjacency 3-6")
	}
	if n := len(ad.PathSet(3, 6, 0)); n != 1 {
		t.Fatalf("cold adjacent pair paths = %d, want 1", n)
	}
	// Path() delegates consistently with PathSet().
	for f := uint64(0); f < 20; f++ {
		if err := checkPath(ad.Path(0, 3, f), 0, 3); err != nil {
			t.Fatal(err)
		}
		p := ad.Path(3, 6, f)
		if len(p) != 2 {
			t.Fatalf("cold pair took non-direct path %v", p)
		}
	}
}
