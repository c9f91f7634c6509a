package workload

import (
	"fmt"
	"math/rand"

	"spineless/internal/topology"
)

// CSSets is an instance of the C-S model (§5.2): a set of client hosts and
// a set of server hosts, each packed into as few racks as possible, with
// server racks disjoint from client racks. Members are global server ids of
// the fabric.
type CSSets struct {
	Clients []int
	Servers []int
}

// CSModel draws a C-S instance on fabric g: nClients hosts packed into the
// fewest racks (racks chosen uniformly at random), then nServers hosts
// packed into the fewest racks avoiding the client racks. It captures
// incast/outcast (1×1), rack-to-rack, skewed (|C| ≪ |S|) and uniform
// (|C| = |S| = n/2) patterns by varying the two sizes.
func CSModel(g *topology.Graph, nClients, nServers int, rng *rand.Rand) (CSSets, error) {
	if nClients <= 0 || nServers <= 0 {
		return CSSets{}, fmt.Errorf("workload: C-S sizes must be positive, got C=%d S=%d", nClients, nServers)
	}
	racks := g.Racks()
	order := rng.Perm(len(racks))

	var cs CSSets
	used := 0 // racks consumed from order
	var err error
	cs.Clients, used, err = packHosts(g, racks, order, 0, nClients)
	if err != nil {
		return CSSets{}, fmt.Errorf("workload: packing clients: %w", err)
	}
	cs.Servers, _, err = packHosts(g, racks, order, used, nServers)
	if err != nil {
		return CSSets{}, fmt.Errorf("workload: packing servers: %w", err)
	}
	return cs, nil
}

// packHosts fills racks (taken in the order given, starting at from) until
// want hosts are placed. It returns the host ids and the next unconsumed
// position in order. It reserves at most the fabric's server count, so an
// oversize want fails on capacity rather than on the allocation.
func packHosts(g *topology.Graph, racks []int, order []int, from, want int) (hosts []int, next int, err error) {
	hosts = make([]int, 0, min(want, g.Servers()))
	i := from
	for want > 0 {
		if i >= len(order) {
			return nil, i, fmt.Errorf("not enough rack capacity for %d more hosts", want)
		}
		rack := racks[order[i]]
		lo, hi := g.ServersOf(rack)
		take := min(want, hi-lo)
		for s := lo; s < lo+take; s++ {
			hosts = append(hosts, s)
		}
		want -= take
		i++
	}
	return hosts, i, nil
}

// CSMatrix converts a C-S instance into a rack-level matrix on fabric g:
// every client rack sends to every server rack in proportion to the number
// of clients and servers hosted there.
func CSMatrix(g *topology.Graph, cs CSSets) *Matrix {
	racks := g.Racks()
	rackIdx := make(map[int]int, len(racks))
	for i, r := range racks {
		rackIdx[r] = i
	}
	clientCount := map[int]int{}
	for _, h := range cs.Clients {
		clientCount[g.RackOf(h)]++
	}
	serverCount := map[int]int{}
	for _, h := range cs.Servers {
		serverCount[g.RackOf(h)]++
	}
	m := NewMatrix(fmt.Sprintf("CS(%d,%d)", len(cs.Clients), len(cs.Servers)), len(racks))
	for cr, cn := range clientCount {
		for sr, sn := range serverCount {
			if cr == sr {
				continue
			}
			m.W[rackIdx[cr]][rackIdx[sr]] = float64(cn * sn)
		}
	}
	return m
}

// CSPairs draws flowCount (client, server) host pairs uniformly from the
// C-S sets — the endpoints of the long-running flows used for throughput
// measurement (§6.2).
func CSPairs(cs CSSets, flowCount int, rng *rand.Rand) [][2]int {
	out := make([][2]int, flowCount)
	for i := range out {
		out[i] = [2]int{
			cs.Clients[rng.Intn(len(cs.Clients))],
			cs.Servers[rng.Intn(len(cs.Servers))],
		}
	}
	return out
}
