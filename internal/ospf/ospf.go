// Package ospf simulates the link-state control plane that moderate-scale
// DCs run when they don't run BGP: §2 notes these networks use
// "shortest-path routing (BGP or OSPF) with equal cost multipath (ECMP)".
// Each router floods link-state advertisements (LSAs), builds the full
// topology database, and runs SPF locally; the resulting per-router ECMP
// next hops must agree with the fabric-wide computation in routing.NewECMP
// — which the tests verify. Flooding is simulated in synchronous rounds so
// convergence time (rounds ≈ fabric diameter) is measurable, including
// after link failures.
package ospf

import (
	"fmt"
	"sort"

	"spineless/internal/topology"
)

// LSA is one router's advertisement: its adjacency list and a sequence
// number (bumped on every local change). A database keys it by router.
type LSA struct {
	Seq       int
	Neighbors []int
}

// Router is one OSPF speaker: its own LSA plus the link-state database of
// everything it has heard.
type Router struct {
	ID  int
	LSA LSA
	DB  map[int]LSA
}

// Domain is the whole routing domain.
type Domain struct {
	g       *topology.Graph // the domain's own copy of the fabric
	Routers []*Router
}

// New builds a domain where every router knows only itself. The domain
// works on its own copy of g: FailLink never touches the caller's fabric.
func New(g *topology.Graph) *Domain {
	d := &Domain{g: g.Clone(), Routers: make([]*Router, g.N())}
	for v := 0; v < g.N(); v++ {
		nb := append([]int(nil), g.Neighbors(v)...)
		sort.Ints(nb)
		lsa := LSA{Seq: 1, Neighbors: nb}
		d.Routers[v] = &Router{ID: v, LSA: lsa, DB: map[int]LSA{v: lsa}}
	}
	return d
}

// Flood runs synchronous flooding rounds until every database is stable,
// returning the number of rounds taken (≈ diameter + 1).
func (d *Domain) Flood() int {
	rounds := 0
	for {
		changed := false
		// Each router offers its whole DB to its neighbors (reliable
		// flooding collapses to DB sync in the synchronous model).
		updates := make([]map[int]LSA, len(d.Routers))
		for _, r := range d.Routers {
			for _, nb := range d.g.Neighbors(r.ID) {
				for id, lsa := range d.Routers[nb].DB {
					if cur, ok := r.DB[id]; !ok || lsa.Seq > cur.Seq {
						if updates[r.ID] == nil {
							updates[r.ID] = map[int]LSA{}
						}
						if u, ok := updates[r.ID][id]; !ok || lsa.Seq > u.Seq {
							updates[r.ID][id] = lsa
						}
					}
				}
			}
		}
		for _, r := range d.Routers {
			for id, lsa := range updates[r.ID] {
				r.DB[id] = lsa
				changed = true
			}
		}
		rounds++
		if !changed {
			return rounds
		}
	}
}

// Converged reports whether every router's database covers every router
// reachable from it.
func (d *Domain) Converged() bool {
	for _, r := range d.Routers {
		dist := topology.BFS(d.g, r.ID)
		for v, dd := range dist {
			if dd >= 0 {
				if _, ok := r.DB[v]; !ok {
					return false
				}
			}
		}
	}
	return true
}

// NextHops computes router r's ECMP next hops toward dst from r's own
// database (SPF over the LSA graph), mirroring what the line cards would
// program. Unknown or unreachable destinations yield nil.
func (d *Domain) NextHops(r, dst int) []int {
	router := d.Routers[r]
	if _, ok := router.DB[dst]; !ok {
		return nil
	}
	// BFS over the database graph from dst, then pick r's neighbors one
	// step closer. Edges are used only if both endpoints advertise them
	// (two-way connectivity check, as real OSPF requires).
	adj := func(v int) []int {
		lsa, ok := router.DB[v]
		if !ok {
			return nil
		}
		var out []int
		for _, w := range lsa.Neighbors {
			peer, ok := router.DB[w]
			if !ok {
				continue
			}
			for _, back := range peer.Neighbors {
				if back == v {
					out = append(out, w)
					break
				}
			}
		}
		return out
	}
	dist := map[int]int{dst: 0}
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj(v) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	dr, ok := dist[r]
	if !ok {
		return nil
	}
	var hops []int
	seen := map[int]bool{}
	for _, w := range adj(r) {
		if dw, ok := dist[w]; ok && dw == dr-1 && !seen[w] {
			seen[w] = true
			hops = append(hops, w)
		}
	}
	sort.Ints(hops)
	return hops
}

// FailLink withdraws the adjacency between a and b on both routers
// (bumping their LSA sequence numbers) without touching the rest of the
// domain; call Flood afterwards to measure reconvergence.
func (d *Domain) FailLink(a, b int) error {
	if a < 0 || b < 0 || a >= len(d.Routers) || b >= len(d.Routers) {
		return fmt.Errorf("ospf: link %d-%d names a router out of range [0,%d)", a, b, len(d.Routers))
	}
	if !remove(&d.Routers[a].LSA, b) || !remove(&d.Routers[b].LSA, a) {
		return fmt.Errorf("ospf: no adjacency %d-%d", a, b)
	}
	d.Routers[a].DB[a] = d.Routers[a].LSA
	d.Routers[b].DB[b] = d.Routers[b].LSA
	// The physical fabric loses the link too (flooding uses it).
	if !d.g.RemoveLink(a, b) {
		return fmt.Errorf("ospf: physical link %d-%d missing", a, b)
	}
	return nil
}

func remove(l *LSA, v int) bool {
	for i, w := range l.Neighbors {
		if w == v {
			l.Neighbors = append(l.Neighbors[:i], l.Neighbors[i+1:]...)
			l.Seq++
			return true
		}
	}
	return false
}
