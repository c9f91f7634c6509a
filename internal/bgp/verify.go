package bgp

import (
	"fmt"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

// VerifyTheorem1 checks §4 Theorem 1 against the converged protocol state:
// for every router pair (R1, R2) at physical distance L, the routing
// distance from (VRF K, R1) to R2's prefix must equal max(L, K). It returns
// the first violation found, or nil.
func VerifyTheorem1(n *Network, rib Rib) error {
	dist := topology.AllPairsDistances(n.Topo)
	for src := 0; src < n.Topo.N(); src++ {
		for dst := 0; dst < n.Topo.N(); dst++ {
			if src == dst {
				continue
			}
			want := dist[src][dst]
			if want < 0 {
				continue // physically unreachable
			}
			if want < n.K {
				want = n.K
			}
			if got := rib.Distance(n, src, dst); got != want {
				return fmt.Errorf("bgp: theorem 1 violated: dist(r%d→r%d) = %d, want max(L=%d, K=%d)",
					src, dst, got, dist[src][dst], n.K)
			}
		}
	}
	return nil
}

// CrossCheckFib verifies that the converged BGP multipath next hops match
// the data-plane FIB computed directly by routing.NewShortestUnion — i.e.
// the protocol realizes exactly the Shortest-Union(K) forwarding state.
// With K=2 the match is exact; for K>=3 BGP's AS-path loop rejection can
// prune router-revisiting equal-cost walks the plain virtual-graph FIB
// admits, so the BGP set must be a subset. strict selects which check runs.
func CrossCheckFib(n *Network, rib Rib, fib *routing.Fib, strict bool) error {
	if fib.SchemeK() != n.K {
		return fmt.Errorf("bgp: FIB K=%d, network K=%d", fib.SchemeK(), n.K)
	}
	// One buffer serves every (node, destination); hop sets are at most
	// degree·K long, so membership is a scan.
	var want []routing.VNode
	for _, node := range n.Nodes() {
		row := rib[node]
		for dst := 0; dst < n.Topo.N(); dst++ {
			if node.Router == dst {
				// VRF K originates the prefix locally; lower VRFs of the
				// destination router reject every path as an AS loop (the
				// virtual-graph FIB keeps phantom out-and-back entries there,
				// but no forwarded packet can ever occupy those states).
				continue
			}
			want = fib.AppendVirtualNextHops(want[:0], node.VRF, node.Router, dst)
			got := row[dst].NextHops
			for _, h := range got {
				if !containsVNode(want, routing.VNode{VRF: h.VRF, Router: h.Router}) {
					return fmt.Errorf("bgp: %v → r%d: protocol next hop %v not in FIB set %v",
						node, dst, h, want)
				}
			}
			if strict && len(got) != len(want) {
				return fmt.Errorf("bgp: %v → r%d: protocol has %d next hops, FIB has %d (%v vs %v)",
					node, dst, len(got), len(want), got, want)
			}
		}
	}
	return nil
}

// containsVNode is slices.Contains spelled out: the generic version compares
// VNodes through its type dictionary and made CrossCheckFib a third slower.
func containsVNode(set []routing.VNode, x routing.VNode) bool {
	for _, y := range set {
		if y == x {
			return true
		}
	}
	return false
}
