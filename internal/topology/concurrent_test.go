package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// serverIndexSummary renders every server-index query on g; serverIndexNaive
// renders the same answers computed from ServerCount alone.
func serverIndexSummary(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s servers=%d\n", g, g.Servers())
	for v := 0; v < g.N(); v++ {
		lo, hi := g.ServersOf(v)
		fmt.Fprintf(&b, "%d:[%d,%d)\n", v, lo, hi)
	}
	for s := 0; s < g.Servers(); s++ {
		fmt.Fprintf(&b, "%d@%d ", s, g.RackOf(s))
	}
	return b.String()
}

func serverIndexNaive(g *Graph) string {
	total := 0
	for v := 0; v < g.N(); v++ {
		total += g.ServerCount(v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s{switches=%d links=%d servers=%d ports=%d} servers=%d\n", g.Name, g.N(), g.Links(), total, g.Ports, total)
	var racks []int
	base := 0
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "%d:[%d,%d)\n", v, base, base+g.ServerCount(v))
		for range g.ServerCount(v) {
			racks = append(racks, v)
		}
		base += g.ServerCount(v)
	}
	for s, r := range racks {
		fmt.Fprintf(&b, "%d@%d ", s, r)
	}
	return b.String()
}

// freshBuilds returns one constructor per builder; each call builds anew.
func freshBuilds() map[string]func() (*Graph, error) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	spec := LeafSpineSpec{X: 12, Y: 4}
	return map[string]func() (*Graph, error){
		"leafspine": func() (*Graph, error) { return LeafSpine(PaperLeafSpine) },
		"flat": func() (*Graph, error) {
			ls, err := LeafSpine(spec)
			if err != nil {
				return nil, err
			}
			return Flatten(ls, rng())
		},
		"rrg":   func() (*Graph, error) { return RRG("rrg", []int{3, 3, 3, 3, 2, 2}, rng()) },
		"dring": func() (*Graph, error) { return DRing(BalancedDRing(spec.Switches(), 13, spec.Radix())) },
		"debruijn": func() (*Graph, error) {
			s, err := FitDeBruijn(spec.Switches(), spec.Radix(), 6)
			if err != nil {
				return nil, err
			}
			return DeBruijn(s)
		},
		"rng": func() (*Graph, error) {
			return RNG(RNGSpec{Switches: spec.Switches(), Degree: 6, Ports: spec.Radix()}, rng())
		},
		"xpander": func() (*Graph, error) {
			g, err := Xpander(20, 4, rng())
			if err != nil {
				return nil, err
			}
			return g, AttachServersEvenly(g, 3*g.N(), 8)
		},
		"expand-dring": func() (*Graph, error) {
			g, _, _, err := ExpandDRing(Uniform(6, 2, 24), []int{2})
			return g, err
		},
	}
}

// TestConcurrentReadersOfFreshGraph: every builder's output answers the
// server-index queries from eight goroutines at once, with no call before
// the fork, and every answer matches one computed from ServerCount. Under
// -race this is the guard that no reader writes.
func TestConcurrentReadersOfFreshGraph(t *testing.T) {
	for name, build := range freshBuilds() {
		t.Run(name, func(t *testing.T) {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			const readers = 8
			got := make([]string, readers)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = serverIndexSummary(g)
				}(i)
			}
			wg.Wait()
			want := serverIndexNaive(g)
			for i, s := range got {
				if s != want {
					t.Fatalf("reader %d saw a different server index:\n%.300s\nwant\n%.300s", i, s, want)
				}
			}
		})
	}
}

// TestServerIndexTracksMutations: SetServers and Clone keep the server
// index current, and a clone's index is its own.
func TestServerIndexTracksMutations(t *testing.T) {
	check := func(g *Graph) {
		t.Helper()
		if got, want := serverIndexSummary(g), serverIndexNaive(g); got != want {
			t.Fatalf("stale server index:\n%s\nwant\n%s", got, want)
		}
	}
	var zero Graph
	if zero.Servers() != 0 {
		t.Fatalf("zero Graph has %d servers", zero.Servers())
	}

	g := New("g", 5, 0)
	check(g)
	for _, s := range [][2]int{{2, 4}, {0, 1}, {4, 2}, {2, 0}, {3, 5}, {0, 1}} {
		g.SetServers(s[0], s[1])
		check(g)
	}
	c := g.Clone()
	c.SetServers(1, 7)
	check(c)
	check(g)
	glo, _ := g.ServersOf(2)
	clo, _ := c.ServersOf(2)
	if glo == clo {
		t.Fatal("SetServers on a clone moved the original's index")
	}
}
