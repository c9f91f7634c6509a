package routing

import (
	"testing"

	"spineless/internal/topology"
)

func TestYenKSPLeafSpine(t *testing.T) {
	g := smallLeafSpine(t)
	paths := YenKSP(g, 0, 1, 4)
	// Exactly 2 loopless 2-hop paths exist; the next shortest are 4-hop
	// (leaf→spine→leaf→spine→leaf).
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	if PathLen(paths[0]) != 2 || PathLen(paths[1]) != 2 {
		t.Fatalf("first two paths not 2-hop: %v", paths[:2])
	}
	if PathLen(paths[2]) != 4 || PathLen(paths[3]) != 4 {
		t.Fatalf("paths 3,4 not 4-hop: %v", paths[2:])
	}
	for _, p := range paths {
		if err := checkPath(p, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestYenKSPOrderingAndUniqueness(t *testing.T) {
	g, _ := smallDRing(t)
	paths := YenKSP(g, 0, 9, 12)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	seen := map[string]bool{}
	prev := 0
	for _, p := range paths {
		if err := checkPath(p, 0, 9); err != nil {
			t.Fatal(err)
		}
		if PathLen(p) < prev {
			t.Fatalf("paths not ordered by length: %v", paths)
		}
		prev = PathLen(p)
		k := pathKey(p)
		if seen[k] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[k] = true
	}
}

func TestYenKSPUnreachable(t *testing.T) {
	g := topology.New("disc", 4, 2)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if p := YenKSP(g, 0, 3, 3); p != nil {
		t.Fatalf("paths to unreachable node: %v", p)
	}
}

func TestKSPScheme(t *testing.T) {
	g, _ := smallDRing(t)
	s, err := NewKSP(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "ksp(4)" {
		t.Fatalf("name = %q", s.Name())
	}
	if _, err := NewKSP(g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	set := s.PathSet(0, 9, 0)
	if len(set) != 4 {
		t.Fatalf("path set size = %d, want 4", len(set))
	}
	// Flows spread across the k paths and are pinned deterministically.
	used := map[string]bool{}
	for flow := uint64(0); flow < 64; flow++ {
		p := s.Path(0, 9, flow)
		if err := checkPath(p, 0, 9); err != nil {
			t.Fatal(err)
		}
		used[pathKey(p)] = true
		q := s.Path(0, 9, flow)
		if pathKey(q) != pathKey(p) {
			t.Fatal("flow not pinned")
		}
	}
	if len(used) < 2 {
		t.Fatalf("flows used only %d distinct paths", len(used))
	}
	if p := s.Path(5, 5, 1); len(p) != 1 || p[0] != 5 {
		t.Fatalf("self path = %v", p)
	}
	if set := s.PathSet(0, 9, 2); len(set) != 2 {
		t.Fatalf("capped path set = %d, want 2", len(set))
	}
}

func TestVLBScheme(t *testing.T) {
	g, _ := smallDRing(t)
	s := NewVLB(g)
	if s.Name() != "vlb" {
		t.Fatalf("name = %q", s.Name())
	}
	for flow := uint64(0); flow < 100; flow++ {
		src, dst := int(flow)%g.N(), int(3*flow+1)%g.N()
		if src == dst {
			continue
		}
		p := s.Path(src, dst, flow)
		if err := checkPath(p, src, dst); err != nil {
			t.Fatalf("flow %d: %v", flow, err)
		}
	}
	if p := s.Path(2, 2, 5); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
	set := s.PathSet(0, 9, 5)
	if len(set) != 5 {
		t.Fatalf("capped VLB path set = %d, want 5", len(set))
	}
	for _, p := range set {
		if err := checkPath(p, 0, 9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpliceLoops(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{[]int{0, 1, 2}, []int{0, 1, 2}},
		{[]int{0, 1, 0, 2}, []int{0, 2}},
		{[]int{0, 1, 2, 1, 3}, []int{0, 1, 3}},
		{[]int{5}, []int{5}},
		{[]int{0, 1, 2, 0, 1, 3}, []int{0, 1, 3}},
	}
	for _, c := range cases {
		got := spliceLoops(append([]int(nil), c.in...))
		if len(got) != len(c.want) {
			t.Fatalf("spliceLoops(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("spliceLoops(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestGreedyDisjoint(t *testing.T) {
	paths := [][]int{
		{0, 1, 2},
		{0, 3, 2},
		{0, 1, 3, 2}, // shares 0-1
		{0, 4, 2},
	}
	got := GreedyDisjoint(paths)
	if len(got) != 3 {
		t.Fatalf("disjoint count = %d, want 3", len(got))
	}
	used := map[[2]int]bool{}
	for _, p := range got {
		for h := 0; h+1 < len(p); h++ {
			k := edgeKey(p[h], p[h+1])
			if used[k] {
				t.Fatalf("paths share edge %v", k)
			}
			used[k] = true
		}
	}
}

func TestCheckPath(t *testing.T) {
	if err := checkPath(nil, 0, 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := checkPath([]int{0, 2}, 0, 1); err == nil {
		t.Fatal("wrong endpoint accepted")
	}
	if err := checkPath([]int{0, 2, 0, 1}, 0, 1); err == nil {
		t.Fatal("loop accepted")
	}
	if err := checkPath([]int{0, 2, 1}, 0, 1); err != nil {
		t.Fatal(err)
	}
}
