// Package bgp simulates the paper's §4 routing prototype: Shortest-Union(K)
// realized with nothing but eBGP, ECMP and VRFs. Every router is its own AS;
// each router is partitioned into K VRFs; host interfaces live in VRF K; and
// the virtual links between VRFs across each physical link carry AS-path
// prepending that encodes the §4 costs. Running standard path-vector route
// propagation over this virtual graph yields FIBs whose equal-cost multipath
// sets are exactly the Shortest-Union(K) path sets.
//
// The paper prototyped this in GNS3 on Cisco 7200 images; this package
// replaces that with a faithful protocol simulation plus a generator for
// Cisco-style router configurations (see config.go), which is the artifact a
// network engineer would deploy.
package bgp

import (
	"fmt"

	"spineless/internal/topology"
)

// ASBase offsets router ids into AS numbers (private 4-byte range).
const ASBase = 64512

// Session is one eBGP adjacency in the VRF graph: To advertises routes to
// From with Prepend extra copies of To's AS (so the AS-path grows by
// 1+Prepend — the §4 link cost).
type Session struct {
	From, To NodeID
	Prepend  int // extra prepends; cost = 1 + Prepend
}

// NodeID identifies one VRF instance on one router.
type NodeID struct {
	Router int
	VRF    int // 1-based, as in the paper; hosts live in VRF K
}

func (n NodeID) String() string { return fmt.Sprintf("r%d/vrf%d", n.Router, n.VRF) }

// Network is the §4 virtual graph over a physical fabric.
type Network struct {
	Topo *topology.Graph
	K    int
	// Sessions, indexed by the receiving node for convergence sweeps.
	Sessions []Session

	// CSR session-graph indexes over dense node ids Router*K + (VRF-1),
	// built eagerly by Build (see buildIndexes): each node's inbound
	// sessions, advertiser-sorted, as advertiser, cost (1+Prepend) and
	// advertiser-router columns, and the reverse dependents used for
	// dirty-set propagation.
	inStart, inAdv, inCost, inRouter []int32
	outStart, outDeps                []int32
}

// Build constructs the VRF session graph for Shortest-Union(K) over g,
// translating each directed physical link u→v into the §4 virtual links:
//
//	(VRF K, u) ← advertisement from (VRF i, v), cost i      (i = 1..K)
//	(VRF i, u) ← advertisement from (VRF i+1, v), cost 1    (i < K)
//	(VRF 1, u) ← advertisement from (VRF 1, v), cost 1
//
// (Traffic flows opposite to advertisements, so the traffic-direction arcs
// match routing.Fib exactly.)
func Build(g *topology.Graph, k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("bgp: need K >= 2, got %d", k)
	}
	// seen[v] == u+1 marks v as already handled for u: one session set per
	// neighbor, regardless of parallel links.
	seen := make([]int, g.N())
	pairs := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if seen[v] != u+1 {
				seen[v] = u + 1
				pairs++
			}
		}
	}
	clear(seen)
	n := &Network{Topo: g, K: k, Sessions: make([]Session, 0, 2*k*pairs)}
	add := func(from, to NodeID, prepend int) {
		n.Sessions = append(n.Sessions, Session{From: from, To: to, Prepend: prepend})
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if seen[v] == u+1 {
				continue
			}
			seen[v] = u + 1
			// Traffic arcs (VRF K,u)→(VRF i,v) cost i: advertisements flow
			// v's VRF i → u's VRF K with i-1 extra prepends.
			for i := 1; i <= k; i++ {
				add(NodeID{u, k}, NodeID{v, i}, i-1)
			}
			// Traffic arcs (VRF i,u)→(VRF i+1,v) cost 1.
			for i := 1; i < k; i++ {
				add(NodeID{u, i}, NodeID{v, i + 1}, 0)
			}
			// Traffic arc (VRF 1,u)→(VRF 1,v) cost 1.
			add(NodeID{u, 1}, NodeID{v, 1}, 0)
		}
	}
	n.buildIndexes()
	return n, nil
}

// AS returns the AS number of a router.
func AS(router int) int { return ASBase + router }

// Nodes enumerates every VRF instance in deterministic order.
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, 0, n.K*n.Topo.N())
	for r := 0; r < n.Topo.N(); r++ {
		for v := 1; v <= n.K; v++ {
			out = append(out, NodeID{r, v})
		}
	}
	return out
}

// buildIndexes lays the session graph out as CSR tables over dense node ids
// by two stable counting passes: sessions by advertiser (each advertiser's
// dependents), then that order by receiver, so each receiver's inbound
// sessions come out advertiser-sorted and ECMP hop sets pre-sorted. Build
// calls it eagerly so converge never mutates the Network.
func (n *Network) buildIndexes() {
	nn := n.Topo.N() * n.K
	from := make([]int32, len(n.Sessions))
	to := make([]int32, len(n.Sessions))
	for si, s := range n.Sessions {
		from[si], to[si] = int32(n.nodeIdx(s.From)), int32(n.nodeIdx(s.To))
	}
	outStart, out := countingSort(to, nil, nn)
	inStart, in := countingSort(from, out, nn)

	n.inStart, n.outStart = inStart, outStart
	n.inAdv = make([]int32, len(in))
	n.inCost = make([]int32, len(in))
	n.inRouter = make([]int32, len(in))
	for i, si := range in {
		s := &n.Sessions[si]
		n.inAdv[i], n.inCost[i], n.inRouter[i] = to[si], int32(1+s.Prepend), int32(s.To.Router)
	}
	n.outDeps = out // session indexes become dependent node ids in place
	for j, si := range out {
		n.outDeps[j] = from[si]
	}
}

// countingSort orders the session indexes in order (all of them, ascending,
// when order is nil) stably by key, returning the bucket offsets and the
// reordered indexes.
func countingSort(key, order []int32, buckets int) ([]int32, []int32) {
	start := make([]int32, buckets+1)
	for _, k := range key {
		start[k+1]++
	}
	for b := 0; b < buckets; b++ {
		start[b+1] += start[b]
	}
	fill := append([]int32(nil), start[:buckets]...)
	out := make([]int32, len(key))
	place := func(si int32) {
		k := key[si]
		out[fill[k]] = si
		fill[k]++
	}
	if order == nil {
		for si := range key {
			place(int32(si))
		}
	} else {
		for _, si := range order {
			place(si)
		}
	}
	return start, out
}
