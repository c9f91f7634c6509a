package routing

import (
	"slices"

	"spineless/internal/topology"
)

// VLB is Valiant load balancing: each flow is bounced through a hashed
// intermediate switch using shortest paths on both legs. The paper's §2
// discusses the ECMP/VLB hybrid of Kassing et al. [15]; pure VLB is the
// oblivious extreme and serves as an ablation baseline here.
type VLB struct {
	g    *topology.Graph
	ecmp *Fib
}

// NewVLB builds a VLB scheme over g, reusing ECMP forwarding per leg.
func NewVLB(g *topology.Graph) *VLB {
	return &VLB{g: g, ecmp: NewECMP(g)}
}

// Name implements Scheme.
func (s *VLB) Name() string { return "vlb" }

// Path implements Scheme. The intermediate switch is chosen by flow hash
// (excluding src and dst); the two shortest-path legs are then ECMP-hashed.
// Any switch-level loop created by the concatenation is spliced out, which
// is what a real FIB would do (the packet would simply be forwarded on).
func (s *VLB) Path(src, dst int, flowID uint64) []int {
	return s.AppendPath(nil, src, dst, flowID)
}

// AppendPath implements Scheme: both legs are appended onto buf and the
// loops spliced out in place.
func (s *VLB) AppendPath(buf []int, src, dst int, flowID uint64) []int {
	if src == dst {
		return append(buf, src)
	}
	mid := s.intermediate(src, dst, flowID)
	if mid < 0 {
		return s.ecmp.AppendPath(buf, src, dst, flowID)
	}
	da, db := s.ecmp.Distance(src, mid), s.ecmp.Distance(mid, dst)
	if da < 0 || db < 0 {
		return buf
	}
	start := len(buf)
	buf = s.ecmp.AppendPath(slices.Grow(buf, da+db+1), src, mid, flowID)
	// The second leg starts at mid, where the first ends.
	buf = s.ecmp.AppendPath(buf[:len(buf)-1], mid, dst, splitmix64(flowID))
	return buf[:start+len(spliceLoops(buf[start:]))]
}

// PathSet implements Scheme. VLB admits, for every intermediate m, the
// concatenation of shortest paths src→m→dst; enumerating all is exponential,
// so PathSet samples one spliced path per intermediate.
func (s *VLB) PathSet(src, dst, maxPaths int) [][]int {
	if src == dst {
		return [][]int{{src}}
	}
	var out [][]int
	for m := 0; m < s.g.N(); m++ {
		if m == src || m == dst {
			continue
		}
		a := s.ecmp.Path(src, m, uint64(m))
		b := s.ecmp.Path(m, dst, uint64(m)+1)
		if a == nil || b == nil {
			continue
		}
		out = append(out, spliceLoops(append(a, b[1:]...)))
		if maxPaths > 0 && len(out) >= maxPaths {
			break
		}
	}
	return out
}

func (s *VLB) intermediate(src, dst int, flowID uint64) int {
	n := s.g.N()
	if n <= 2 {
		return -1
	}
	m := hashChoice(splitmix64(flowID^0x1b0), 0, src, n)
	for m == src || m == dst {
		m = (m + 1) % n
	}
	return m
}

// spliceLoops removes switch-level loops from a walk in place: it keeps the
// first occurrence of each repeated switch, drops the excursion up to its
// last occurrence, and returns the shortened prefix of walk — a simple path
// with the same endpoints. The scan is quadratic, which suits forwarding
// paths of a few hops, and it allocates nothing.
func spliceLoops(walk []int) []int {
	for i := 0; i < len(walk); i++ {
		for j := len(walk) - 1; j > i; j-- {
			if walk[j] == walk[i] {
				walk = append(walk[:i], walk[j:]...)
				break
			}
		}
	}
	return walk
}

var _ Scheme = (*VLB)(nil)
