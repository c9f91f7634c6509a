package topology

import (
	"fmt"
	"math/rand"
)

// Xpander builds an Xpander-style expander [27] by repeated random 2-lifts
// of the complete graph K_{d+1}, where d is the desired network degree.
// Each 2-lift doubles the switch count while preserving d-regularity; lifts
// are applied until the graph has at least minN switches. Servers are
// not attached; callers typically follow with AttachServersEvenly.
//
// The paper's comparisons use the RRG ("a high-end expander"); Xpander is
// provided because §2 discusses it as the cabling-friendly alternative with
// matching performance.
func Xpander(minN, d int, rng *rand.Rand) (*Graph, error) {
	if d < 2 {
		return nil, fmt.Errorf("xpander: degree %d too small: %w", d, ErrInfeasible)
	}
	if minN < d+1 {
		minN = d + 1
	}
	// Start from K_{d+1}.
	type edge struct{ a, b int }
	var edges []edge
	n := d + 1
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, edge{a, b})
		}
	}
	// Random 2-lift: vertex v becomes (v, v+n); edge (a,b) becomes either
	// {(a,b),(a+n,b+n)} (parallel) or {(a,b+n),(a+n,b)} (crossed).
	for n < minN {
		lifted := make([]edge, 0, 2*len(edges))
		for _, e := range edges {
			if rng.Intn(2) == 0 {
				lifted = append(lifted, edge{e.a, e.b}, edge{e.a + n, e.b + n})
			} else {
				lifted = append(lifted, edge{e.a, e.b + n}, edge{e.a + n, e.b})
			}
		}
		edges = lifted
		n *= 2
	}
	g := New(fmt.Sprintf("xpander(n=%d,d=%d)", n, d), n, 0)
	for _, e := range edges {
		if err := g.AddLink(e.a, e.b); err != nil {
			return nil, err
		}
	}
	if !g.Connected() {
		// A disconnected lift is possible but rare; retry recursively with
		// fresh randomness (bounded by the caller's patience in practice —
		// each retry succeeds with high probability).
		return Xpander(minN, d, rng)
	}
	return g, nil
}

// AttachServersEvenly sets the radix and spreads totalServers across all
// switches as evenly as possible, failing if any switch lacks spare ports.
func AttachServersEvenly(g *Graph, totalServers, ports int) error {
	g.Ports = ports
	counts := SpreadEvenly(totalServers, g.N())
	for v, c := range counts {
		if g.NetworkDegree(v)+c > ports {
			return fmt.Errorf("topology %q: switch %d needs %d ports, radix %d: %w",
				g.Name, v, g.NetworkDegree(v)+c, ports, ErrInfeasible)
		}
		g.SetServers(v, c)
	}
	return nil
}
