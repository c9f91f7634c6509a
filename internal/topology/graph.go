// Package topology builds and analyzes the data-center fabrics studied in
// "Spineless Data Centers" (HotNets '20): 2-tier leaf-spine networks, their
// flat rewirings, random regular graphs (Jellyfish), the DRing topology, and
// Xpander-style lifted expanders.
//
// A Graph models the switch-level fabric: vertices are switches, edges are
// network links, and each switch hosts zero or more servers. Servers are
// addressed globally (0..Servers()-1) and mapped to their rack via RackOf.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a switch-level fabric. Switches are numbered 0..N-1. Network
// links are undirected; parallel links are permitted and appear once per
// copy in each endpoint's adjacency list. Each switch hosts ServerCount(i)
// servers on dedicated server ports.
//
// The zero value is an empty fabric with no switches.
type Graph struct {
	Name  string
	Ports int // switch radix (server + network ports); 0 if unconstrained

	servers []int // servers hosted per switch
	adj     [][]int
	links   int
	// serverPre[i] is the number of servers on switches < i (len N+1). Every
	// mutator keeps it current, so readers never write and a graph can be
	// shared across goroutines once built.
	serverPre []int
}

// New returns a fabric with n switches, no links and no servers.
func New(name string, n, ports int) *Graph {
	return &Graph{
		Name:      name,
		Ports:     ports,
		servers:   make([]int, n),
		adj:       make([][]int, n),
		serverPre: make([]int, n+1),
	}
}

// N returns the number of switches.
func (g *Graph) N() int { return len(g.adj) }

// Links returns the number of undirected network links.
func (g *Graph) Links() int { return g.links }

// AddLink adds an undirected network link between switches a and b.
// Self-loops are rejected; parallel links are allowed.
func (g *Graph) AddLink(a, b int) error {
	if a == b {
		return fmt.Errorf("topology: self-loop at switch %d", a)
	}
	if a < 0 || a >= len(g.adj) || b < 0 || b >= len(g.adj) {
		return fmt.Errorf("topology: link %d-%d out of range [0,%d)", a, b, len(g.adj))
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.links++
	return nil
}

// RemoveLink removes one copy of the undirected link a-b, if present.
func (g *Graph) RemoveLink(a, b int) bool {
	if !removeOne(&g.adj[a], b) {
		return false
	}
	if !removeOne(&g.adj[b], a) {
		// Adjacency lists disagreed; restore and report corruption loudly.
		g.adj[a] = append(g.adj[a], b)
		panic("topology: asymmetric adjacency")
	}
	g.links--
	return true
}

func removeOne(s *[]int, v int) bool {
	a := *s
	for i, x := range a {
		if x == v {
			a[i] = a[len(a)-1]
			*s = a[:len(a)-1]
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of switch v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// NetworkDegree returns the number of network ports in use at switch v.
func (g *Graph) NetworkDegree(v int) int { return len(g.adj[v]) }

// SetServers assigns k servers to switch v, replacing any previous count.
func (g *Graph) SetServers(v, k int) {
	d := k - g.servers[v]
	g.servers[v] = k
	for i := v + 1; i < len(g.serverPre); i++ {
		g.serverPre[i] += d
	}
}

// ServerCount returns the number of servers hosted at switch v.
func (g *Graph) ServerCount(v int) int { return g.servers[v] }

// Servers returns the total number of servers in the fabric.
func (g *Graph) Servers() int {
	if len(g.serverPre) == 0 {
		return 0 // the zero value
	}
	return g.serverPre[len(g.serverPre)-1]
}

// RackOf maps a global server id to its switch (rack).
func (g *Graph) RackOf(server int) int {
	return sort.SearchInts(g.serverPre, server+1) - 1
}

// ServersOf returns the global id range [lo, hi) of servers on switch v.
func (g *Graph) ServersOf(v int) (lo, hi int) {
	return g.serverPre[v], g.serverPre[v] + g.servers[v]
}

// HasLink reports whether at least one link a-b exists.
func (g *Graph) HasLink(a, b int) bool {
	for _, x := range g.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

// LinkMultiplicity returns the number of parallel links between a and b.
func (g *Graph) LinkMultiplicity(a, b int) int {
	m := 0
	for _, x := range g.adj[a] {
		if x == b {
			m++
		}
	}
	return m
}

// PortOffsets returns the port numbering every link-keyed array uses: the
// directed link (u, j) — u's j-th adjacency entry, parallel copies counted
// separately — is port off[u]+j, and off[N()] is the number of directed
// links. The numbering is only as current as the adjacency it was taken
// from.
func (g *Graph) PortOffsets() []int32 {
	return g.AppendPortOffsets(make([]int32, 0, len(g.adj)+1))
}

// AppendPortOffsets appends PortOffsets' N()+1 entries onto buf and returns
// the extended slice, allocating nothing when buf has room.
func (g *Graph) AppendPortOffsets(buf []int32) []int32 {
	buf = append(buf, 0)
	for _, nb := range g.adj {
		buf = append(buf, buf[len(buf)-1]+int32(len(nb)))
	}
	return buf
}

// Port returns the position in u's adjacency row of the c-th copy (from 0)
// of the link u→v, or -1 when u has at most c links to v. It scans one row.
func (g *Graph) Port(u, v, c int) int {
	for j, w := range g.adj[u] {
		if w == v {
			if c == 0 {
				return j
			}
			c--
		}
	}
	return -1
}

// Validate checks internal consistency: symmetric adjacency, port budgets,
// and non-negative server counts. It returns the first problem found.
func (g *Graph) Validate() error {
	counts := make(map[[2]int]int)
	total := 0
	for v, nb := range g.adj {
		for _, w := range nb {
			if w == v {
				return fmt.Errorf("topology %q: self-loop at %d", g.Name, v)
			}
			if w < 0 || w >= len(g.adj) {
				return fmt.Errorf("topology %q: switch %d links to out-of-range %d", g.Name, v, w)
			}
			k := [2]int{min(v, w), max(v, w)}
			counts[k]++
			total++
		}
	}
	if total != 2*g.links {
		return fmt.Errorf("topology %q: link count %d inconsistent with adjacency (%d endpoints)", g.Name, g.links, total)
	}
	for k, c := range counts {
		if c%2 != 0 {
			return fmt.Errorf("topology %q: asymmetric adjacency between %d and %d", g.Name, k[0], k[1])
		}
	}
	for v, s := range g.servers {
		if s < 0 {
			return fmt.Errorf("topology %q: negative server count at %d", g.Name, v)
		}
		if g.Ports > 0 && s+len(g.adj[v]) > g.Ports {
			return fmt.Errorf("topology %q: switch %d uses %d ports, radix is %d",
				g.Name, v, s+len(g.adj[v]), g.Ports)
		}
	}
	return nil
}

// Connected reports whether every switch can reach every other switch.
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				visited++
				stack = append(stack, w)
			}
		}
	}
	return visited == n
}

// Clone returns a deep copy of the fabric.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Ports: g.Ports, links: g.links}
	c.servers = append([]int(nil), g.servers...)
	c.serverPre = append([]int(nil), g.serverPre...)
	c.adj = make([][]int, len(g.adj))
	for i, nb := range g.adj {
		c.adj[i] = append([]int(nil), nb...)
	}
	return c
}

// Racks returns the switches that host at least one server, in id order.
// In a flat network this is every switch; in a leaf-spine it is the leaves.
func (g *Graph) Racks() []int {
	n := 0
	for _, s := range g.servers {
		if s > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	r := make([]int, 0, n)
	for v, s := range g.servers {
		if s > 0 {
			r = append(r, v)
		}
	}
	return r
}

// String summarizes the fabric.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{switches=%d links=%d servers=%d ports=%d}",
		g.Name, g.N(), g.links, g.Servers(), g.Ports)
}

// ErrInfeasible reports that a generator could not satisfy its constraints.
var ErrInfeasible = errors.New("topology: infeasible construction")
