package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New("empty", 4, 8)
	if g.N() != 4 || g.Links() != 0 || g.Servers() != 0 {
		t.Fatalf("unexpected empty graph: %v", g)
	}
	if !g.Connected() {
		// 4 isolated switches are not connected.
		t.Log("disconnected as expected")
	} else {
		t.Fatal("4 isolated switches reported connected")
	}
}

func TestAddLinkRejectsSelfLoop(t *testing.T) {
	g := New("g", 2, 4)
	if err := g.AddLink(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddLink(0, 2); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if err := g.AddLink(-1, 0); err == nil {
		t.Fatal("negative switch accepted")
	}
}

func TestAddRemoveLink(t *testing.T) {
	g := New("g", 3, 4)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 0, 1) // parallel link
	mustLink(t, g, 1, 2)
	if g.Links() != 3 {
		t.Fatalf("links = %d, want 3", g.Links())
	}
	if got := g.LinkMultiplicity(0, 1); got != 2 {
		t.Fatalf("multiplicity(0,1) = %d, want 2", got)
	}
	if !g.RemoveLink(0, 1) {
		t.Fatal("RemoveLink failed")
	}
	if g.Links() != 2 || g.LinkMultiplicity(0, 1) != 1 {
		t.Fatalf("after remove: links=%d mult=%d", g.Links(), g.LinkMultiplicity(0, 1))
	}
	if g.RemoveLink(0, 2) {
		t.Fatal("removed nonexistent link")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestServerIndexing(t *testing.T) {
	g := New("g", 3, 8)
	g.SetServers(0, 2)
	g.SetServers(1, 0)
	g.SetServers(2, 3)
	if g.Servers() != 5 {
		t.Fatalf("Servers = %d, want 5", g.Servers())
	}
	wantRack := []int{0, 0, 2, 2, 2}
	for s, want := range wantRack {
		if got := g.RackOf(s); got != want {
			t.Errorf("RackOf(%d) = %d, want %d", s, got, want)
		}
	}
	lo, hi := g.ServersOf(2)
	if lo != 2 || hi != 5 {
		t.Fatalf("ServersOf(2) = [%d,%d), want [2,5)", lo, hi)
	}
	if lo, _ := g.ServersOf(1); lo != 2 {
		t.Fatalf("ServersOf(1) starts at %d, want 2", lo)
	}
	// Mutate and re-query: the lazy index must refresh.
	g.SetServers(1, 4)
	if g.RackOf(2) != 1 {
		t.Fatalf("RackOf(2) after mutation = %d, want 1", g.RackOf(2))
	}
}

func TestValidatePortBudget(t *testing.T) {
	g := New("g", 2, 2)
	mustLink(t, g, 0, 1)
	g.SetServers(0, 2) // 1 network + 2 server = 3 > radix 2
	if err := g.Validate(); err == nil {
		t.Fatal("over-budget switch passed Validate")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New("g", 3, 4)
	mustLink(t, g, 0, 1)
	g.SetServers(0, 1)
	c := g.Clone()
	mustLink(t, c, 1, 2)
	c.SetServers(0, 3)
	if g.Links() != 1 || g.ServerCount(0) != 1 {
		t.Fatal("mutating clone affected original")
	}
	if c.Links() != 2 || c.ServerCount(0) != 3 {
		t.Fatal("clone did not record mutations")
	}
}

func TestConnected(t *testing.T) {
	g := New("g", 4, 4)
	mustLink(t, g, 0, 1)
	mustLink(t, g, 2, 3)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	mustLink(t, g, 1, 2)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestRacks(t *testing.T) {
	g := New("g", 4, 4)
	g.SetServers(1, 2)
	g.SetServers(3, 1)
	r := g.Racks()
	if len(r) != 2 || r[0] != 1 || r[1] != 3 {
		t.Fatalf("Racks = %v, want [1 3]", r)
	}
	if r := New("empty", 3, 4).Racks(); r != nil {
		t.Fatalf("Racks of a fabric without servers = %v, want nil", r)
	}
}

// TestRacksAllocs: Racks counts before it fills, so it makes exactly one
// allocation, of exactly the rack count, on the paper-scale DRing.
func TestRacksAllocs(t *testing.T) {
	g, err := DRing(BalancedDRing(PaperLeafSpine.Switches(), 12, PaperLeafSpine.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	var r []int
	if got := testing.AllocsPerRun(20, func() { r = g.Racks() }); got != 1 {
		t.Fatalf("Racks makes %.0f allocations, want 1", got)
	}
	if len(r) != cap(r) || len(r) != g.N() {
		t.Fatalf("Racks: len %d cap %d, want %d racks", len(r), cap(r), g.N())
	}
}

func TestRackOfQuick(t *testing.T) {
	// Property: for any server distribution, RackOf is the inverse of
	// ServersOf — every server id falls inside its rack's range.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		g := New("q", len(raw), 0)
		for i, c := range raw {
			g.SetServers(i, int(c%9))
		}
		for s := 0; s < g.Servers(); s++ {
			r := g.RackOf(s)
			lo, hi := g.ServersOf(r)
			if s < lo || s >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustLink(t *testing.T, g *Graph, a, b int) {
	t.Helper()
	if err := g.AddLink(a, b); err != nil {
		t.Fatalf("AddLink(%d,%d): %v", a, b, err)
	}
}

func testRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }

// regular returns the degree sequence of a d-regular graph on n switches.
func regular(n, d int) []int {
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = d
	}
	return degrees
}
