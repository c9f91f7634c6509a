package routing

import (
	"spineless/internal/topology"
)

// NewSPVLB builds the RNG fabric's native scheme (arXiv:2604.15261):
// shortest-path ECMP with a Valiant fallback for diversity-starved pairs.
// Random-neighbor graphs have excellent average path diversity but no
// structural guarantee per pair; the AWS design routes on shortest paths
// where ECMP has real fan-out and bounces through an intermediate where it
// does not, buying worst-case spread for a constant stretch on the few
// poor pairs.
//
// The diversity predicate — "does ECMP offer at least two first-hop
// choices?" — is evaluated per rack pair at construction time and frozen
// into a bitmap, so the result is an immutable Adaptive composition of two
// immutable schemes and inherits the Scheme concurrency contract for free.
func NewSPVLB(g *topology.Graph) *Adaptive {
	vlb := NewVLB(g)
	ecmp := vlb.ecmp // one FIB serves the shortest-path half and both VLB legs
	n := g.N()
	starved := make([]bool, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				starved[src*n+dst] = !ecmp.diverse(src, dst)
			}
		}
	}
	return NewAdaptive("spvlb", ecmp, vlb, func(src, dst int) bool {
		return starved[src*n+dst]
	})
}
