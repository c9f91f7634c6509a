package topology

import "fmt"

// ExpandReport quantifies the rewiring cost of growing a fabric — the
// §3.2 claim that the DRing "is easily incrementally expandable, by adding
// supernodes in the ring supergraph", made measurable.
type ExpandReport struct {
	// TouchedSwitches counts pre-existing switches whose cabling changed.
	TouchedSwitches int
}

// ExpandDRing grows a DRing by appending new supernodes at the ring seam
// (between the last and first supernode). Pre-existing ToRs keep their ids;
// new ToRs are appended. It returns the expanded fabric and the rewiring
// cost relative to DRing(old).
//
// The cost is local to the seam: only ToRs within ring distance 2 of the
// insertion point are touched, independent of the ring's length — the
// property that makes incremental expansion cheap at small scale.
func ExpandDRing(old DRingSpec, extra []int) (*Graph, DRingSpec, ExpandReport, error) {
	if len(extra) == 0 {
		return nil, DRingSpec{}, ExpandReport{}, fmt.Errorf("dring: nothing to add: %w", ErrInfeasible)
	}
	for i, e := range extra {
		if e <= 0 {
			return nil, DRingSpec{}, ExpandReport{}, fmt.Errorf("dring: extra supernode %d has size %d: %w", i, e, ErrInfeasible)
		}
	}
	newSpec := DRingSpec{Sizes: append(append([]int(nil), old.Sizes...), extra...), Ports: old.Ports}
	gOld, err := DRing(old)
	if err != nil {
		return nil, DRingSpec{}, ExpandReport{}, err
	}
	gNew, err := DRing(newSpec)
	if err != nil {
		return nil, DRingSpec{}, ExpandReport{}, err
	}
	rep := diffGraphs(gOld, gNew)
	return gNew, newSpec, rep, nil
}

// diffGraphs compares edge sets over the shared id range (old switches keep
// their ids; new ones have ids >= old.N()).
func diffGraphs(old, new *Graph) ExpandReport {
	oldEdges := edgeSet(old)
	newEdges := edgeSet(new)
	var rep ExpandReport
	touched := map[int]bool{}
	for e := range oldEdges {
		if !newEdges[e] {
			touched[e[0]] = true
			touched[e[1]] = true
		}
	}
	for e := range newEdges {
		if !oldEdges[e] {
			if e[0] < old.N() {
				touched[e[0]] = true
			}
			if e[1] < old.N() {
				touched[e[1]] = true
			}
		}
	}
	for v := range touched {
		if v < old.N() {
			rep.TouchedSwitches++
		}
	}
	return rep
}

func edgeSet(g *Graph) map[[2]int]bool {
	out := make(map[[2]int]bool, g.Links())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				out[[2]int{v, w}] = true
			}
		}
	}
	return out
}
