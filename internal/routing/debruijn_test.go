package routing

import (
	"math/rand"
	"testing"

	"spineless/internal/topology"
)

func buildDeBruijn(t testing.TB, spec topology.DeBruijnSpec) (*topology.Graph, *DeBruijn) {
	t.Helper()
	g, err := topology.DeBruijn(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDeBruijn(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// directedShiftBFS computes single-source distances over the *directed*
// De Bruijn shift edges v → (v·k + y) mod N, independently of the scheme
// under test.
func directedShiftBFS(n, k, src int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for y := 0; y < k; y++ {
			if w := (v*k + y) % n; dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestDeBruijnStepsMatchBFS is the satellite "self-routing path equals
// Dijkstra length" spot check: the shift-register walk length (before loop
// splicing) must equal the directed De Bruijn distance for every pair, and
// the emitted (spliced, undirected) path must be bracketed by the
// undirected BFS distance below and the walk length above.
func TestDeBruijnStepsMatchBFS(t *testing.T) {
	for _, spec := range []topology.DeBruijnSpec{
		{Symbols: 2, Digits: 4, Ports: 8},
		{Symbols: 3, Digits: 3, Ports: 10},
		{Symbols: 4, Digits: 2, Ports: 12},
	} {
		g, s := buildDeBruijn(t, spec)
		n := g.N()
		for src := 0; src < n; src++ {
			dist := directedShiftBFS(n, spec.Symbols, src)
			undirected := topology.BFS(g, src)
			for dst := 0; dst < n; dst++ {
				if steps := s.Steps(src, dst); steps != dist[dst] {
					t.Fatalf("%s: Steps(%d,%d) = %d, directed BFS says %d", g.Name, src, dst, steps, dist[dst])
				}
				p := s.Path(src, dst, 0)
				if err := CheckPath(p, src, dst); err != nil {
					t.Fatalf("%s: %v", g.Name, err)
				}
				if l := PathLen(p); l > dist[dst] || l < undirected[dst] {
					t.Fatalf("%s: path %d→%d has %d hops, want within [%d, %d]", g.Name, src, dst, l, undirected[dst], dist[dst])
				}
			}
		}
	}
}

// TestDeBruijnPathsUseRealLinks: every hop of every emitted path must be a
// link that exists in the fabric — self-routing never consults the graph,
// so this pins that the label arithmetic and the builder agree. Also pins
// flowID independence (self-routing is single-path) and PathSet validity.
func TestDeBruijnPathsUseRealLinks(t *testing.T) {
	g, s := buildDeBruijn(t, topology.DeBruijnSpec{Symbols: 3, Digits: 3, Ports: 10})
	n := g.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p := s.Path(src, dst, 1)
			for i := 1; i < len(p); i++ {
				if !g.HasLink(p[i-1], p[i]) {
					t.Fatalf("path %d→%d uses nonexistent link %d-%d", src, dst, p[i-1], p[i])
				}
			}
			if q := s.Path(src, dst, 0xdeadbeef); len(q) != len(p) {
				t.Fatalf("path %d→%d depends on flowID", src, dst)
			}
			for _, q := range s.PathSet(src, dst, 4) {
				if err := CheckPath(q, src, dst); err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(q); i++ {
					if !g.HasLink(q[i-1], q[i]) {
						t.Fatalf("PathSet %d→%d uses nonexistent link %d-%d", src, dst, q[i-1], q[i])
					}
				}
			}
		}
	}
}

// TestNewDeBruijnRejectsOtherFabrics: constructing the self-routing scheme
// on a fabric without shift structure must fail loudly, not route garbage.
func TestNewDeBruijnRejectsOtherFabrics(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(8, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeBruijn(g); err == nil {
		t.Fatal("NewDeBruijn(dring) succeeded, want error")
	}
}

// TestDeBruijnAppendPathAllocs pins AppendPath's zero-allocation
// contract: with a caller-provided buffer it must not allocate at all.
func TestDeBruijnAppendPathAllocs(t *testing.T) {
	_, s := buildDeBruijn(t, topology.DeBruijnSpec{Symbols: 4, Digits: 3, Ports: 12})
	buf := make([]int, 0, 8)
	src, dst := 5, 62
	if allocs := testing.AllocsPerRun(200, func() {
		buf = s.AppendPath(buf[:0], src, dst)
		src, dst = dst, src
	}); allocs != 0 {
		t.Fatalf("AppendPath allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSPVLBContract pins the RNG fabric's native scheme: valid simple paths
// over real links for every pair, deterministic per (src, dst, flowID).
func TestSPVLBContract(t *testing.T) {
	g, err := topology.RNG(topology.RNGSpec{Switches: 20, Degree: 4, Ports: 10}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSPVLB(g)
	if s.Name() != "spvlb" {
		t.Fatalf("Name = %q", s.Name())
	}
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			for _, flow := range []uint64{1, 99} {
				p := s.Path(src, dst, flow)
				if err := CheckPath(p, src, dst); err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(p); i++ {
					if !g.HasLink(p[i-1], p[i]) {
						t.Fatalf("spvlb path %d→%d uses nonexistent link %d-%d", src, dst, p[i-1], p[i])
					}
				}
				q := s.Path(src, dst, flow)
				if len(q) != len(p) {
					t.Fatalf("spvlb path %d→%d nondeterministic", src, dst)
				}
				for i := range p {
					if p[i] != q[i] {
						t.Fatalf("spvlb path %d→%d nondeterministic", src, dst)
					}
				}
			}
		}
	}
}
